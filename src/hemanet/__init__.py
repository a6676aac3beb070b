"""hemanet: from-scratch neural networks for CBC-based anemia screening.

Three model families (feedforward, Elman, NARX) trained with momentum
gradient descent, a two-stage diagnose-then-classify pipeline, a clinical
labeling rule, a consistent synthetic data generator, and the metrics
needed to compare the families.
"""
