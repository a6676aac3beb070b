"""Common laboratory entry mistakes, each on one of two coherent CBC panels,
scored by the screen ``predict`` runs (ROADMAP item X).

Most laboratory errors are identification, transcription and unit mistakes
(Bonini et al., Clin Chem 48:691, 2002; Plebani, Clin Chem Lab Med 44:750,
2006).  A screen should fail closed on each: a mistake a check can see gets
an error entry and no verdict, and a labeled file holding it is refused; a
mistake no check can see (a flipped gender) gets the labeling rule's verdict
on the record as entered.  A mistake that gets a verdict today is a strict
xfail naming the item that fixes it, so the change that fixes it must remove
its mark.
"""
from dataclasses import replace

import pytest

from hemanet.cli import MIX_ORDER, fit_stage
from hemanet.dataio import CsvFormatError, load_csv, save_csv
from hemanet.models import FAMILIES
from hemanet.nncore import TrainConfig
from hemanet.pipeline import ERROR, run_pipeline
from hemanet.records import SUBTYPES, AnemiaLabel, CbcRecord, Gender, LabeledRecord, rule_label
from hemanet.synth import synth_generate


def panel(gender: Gender, rbc: float, hgb: float, hct: float) -> CbcRecord:
    """A 40-year-old's panel whose red-cell indices obey the identities
    MCV = 10 HCT/RBC, MCH = 10 HGB/RBC and MCHC = 100 HGB/HCT."""
    return CbcRecord(40, gender, rbc, hgb, hct, 10 * hct / rbc, 10 * hgb / rbc, 100 * hgb / hct,
                     wbc=7.0)


MAN = panel(Gender.MALE, rbc=4.8, hgb=14.5, hct=43.5)  # the rule says NON-ANEMIC
WOMAN = panel(Gender.FEMALE, rbc=3.6, hgb=10.5, hct=33.0)  # the rule says NORMOCYTIC

#: What a row expects besides a violation text: no verdict, or the rule's.
WITHHELD, RULE = "withheld", "rule"


def fixed_by(items: str):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"fixed by item {items}")


ROWS = [
    pytest.param(MAN, dict(hgb=145.0), "hgb out of [3, 22]", id="man-hgb-in-g-per-l"),
    pytest.param(MAN, dict(wbc=7000.0), "wbc out of [1, 50]", id="man-wbc-per-ul"),
    pytest.param(MAN, dict(age=480), "age out of [0, 120]", id="man-age-in-months"),
    pytest.param(WOMAN, dict(mcv=WOMAN.mch, mch=WOMAN.mcv),
                 "mcv out of [50, 150]; mch out of [15, 45]", id="woman-mcv-mch-swapped"),
    pytest.param(MAN, dict(hct=0.435), WITHHELD, id="man-hct-as-a-fraction",
                 marks=fixed_by("M or V")),
    pytest.param(MAN, dict(hgb=9.0), WITHHELD, id="man-hgb-in-mmol-per-l", marks=fixed_by("M")),
    pytest.param(MAN, dict(mch=MAN.mchc, mchc=MAN.mch), WITHHELD, id="man-mch-mchc-swapped",
                 marks=fixed_by("M")),
    pytest.param(MAN, dict(rbc=MAN.wbc, wbc=MAN.rbc), WITHHELD, id="man-rbc-wbc-swapped",
                 marks=fixed_by("M or V")),
    pytest.param(MAN, dict(age=5), WITHHELD, id="man-aged-5", marks=fixed_by("L or V")),
    # Anemic by the rule, and every family calls her NON-ANEMIC (P's shortcut).
    pytest.param(WOMAN, dict(rbc=WOMAN.wbc, wbc=WOMAN.rbc), WITHHELD, id="woman-rbc-wbc-swapped",
                 marks=fixed_by("M or V")),
    pytest.param(WOMAN, dict(hct=0.33), WITHHELD, id="woman-hct-as-a-fraction",
                 marks=fixed_by("M or V")),
    pytest.param(WOMAN, dict(hgb=6.5), WITHHELD, id="woman-hgb-in-mmol-per-l",
                 marks=fixed_by("M")),
    pytest.param(WOMAN, dict(gender=Gender.MALE), RULE, id="woman-gender-flipped"),
]


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """{family: (diagnosis, classify)} bundles as ``train --seed 7`` makes
    them at its defaults from ``synth -n 230 --mix 41,62,61,66 --seed 7``."""
    path = tmp_path_factory.mktemp("lab_mistakes") / "synth230.csv"
    save_csv(synth_generate(230, dict(zip(MIX_ORDER, (41, 62, 61, 66))), seed=7), path)
    records = load_csv(path)
    return {family: tuple(fit_stage(records, family, stage, TrainConfig(seed=7))[0]
                          for stage in ("diagnosis", "classify"))
            for family in FAMILIES}


def screened(diag, clf, record: CbcRecord):
    """(label, error) the screen gives one record; label None on an error row."""
    s = run_pipeline(diag, clf, [record])
    if s.verdict[0] == ERROR:
        return None, s.error[0]
    return (SUBTYPES[s.subtype[0]] if s.verdict[0] else AnemiaLabel.NON_ANEMIC), None


@pytest.mark.parametrize("base, mistake, expected", ROWS)
def test_mistake_fails_closed(models, tmp_path, base, mistake, expected):
    record = replace(base, **mistake)
    got = {family: screened(*bundles, record) for family, bundles in models.items()}
    if expected == RULE:
        assert got == {family: (rule_label(record), None) for family in models}
        return
    assert {family: label for family, (label, _) in got.items()} == dict.fromkeys(models)
    if expected == WITHHELD:
        return
    assert {family: error for family, (_, error) in got.items()} == dict.fromkeys(models, expected)
    path = tmp_path / "one.csv"
    save_csv([LabeledRecord(record, rule_label(base))], path)
    with pytest.raises(CsvFormatError) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: 1 invalid row(s): row 1 ({expected})"
