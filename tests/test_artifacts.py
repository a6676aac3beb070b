"""Fixed-seed CLI artifacts stay byte-identical to the checked-in manifest."""
from artifacts import MANIFEST, build, manifest_changes, read_manifest, versions


def test_fixed_seed_artifacts_match_manifest(tmp_path):
    recorded, expected = read_manifest()
    differ = manifest_changes(expected, build(tmp_path))
    assert not differ, (
        f"{len(differ)} artifact(s) differ from {MANIFEST.name} "
        f"(built with {recorded}; this run: {versions()}): {', '.join(differ)}"
    )


def test_manifest_changes_name_each_file_added_removed_or_changed():
    old = {"a.json": "1", "b.csv": "2", "gone.json": "3"}
    new = {"a.json": "1", "b.csv": "9", "new.txt": "4"}
    assert manifest_changes(old, new) == [
        "changed  b.csv", "removed  gone.json", "added  new.txt"]
    assert manifest_changes(new, new) == []
