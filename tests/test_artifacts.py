"""Fixed-seed CLI artifacts stay byte-identical to the checked-in manifest."""
from artifacts import MANIFEST, build, read_manifest, versions


def test_fixed_seed_artifacts_match_manifest(tmp_path):
    recorded, expected = read_manifest()
    got = build(tmp_path)
    differ = sorted(name for name in expected.keys() | got.keys()
                    if expected.get(name) != got.get(name))
    assert not differ, (
        f"{len(differ)} artifact(s) differ from {MANIFEST.name} "
        f"(built with {recorded}; this run: {versions()}): {', '.join(differ)}"
    )
