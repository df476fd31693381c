import ast
from pathlib import Path


def test_reference_impls_import_no_package_code():
    # the loop-nest oracles are a second implementation only while they share
    # no code with the package they check
    tree = ast.parse((Path(__file__).parent / "reference_impls.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    assert imported, "the walk found no imports at all"
    assert [m for m in imported if m.split(".")[0] == "upsample"] == []
