"""The library's surface: every function, class and method in
``src/stateiso``, private ones included and dunders excepted, is referenced
from ``src/``, or is kept for a reason named here.  A method counts as
referenced only through attribute access, so that a local variable of the
same name does not stand in for a caller."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stateiso"

# Definitions that no code in src/ references, each with its reason.
KEPT = {
    "pauli_expectation": "acceptance criterion 10 reads the R-state expectations through it",
    "PauliOp.single": "the tests and acceptance criterion 10 build single-qubit Paulis "
                      "through it",
    "CliffordElement.to_unitary": "perfbench's tracer wraps it; the dense reference of the "
                                  "Clifford kernel tests",
    "CliffordElement.stabilized_state": "perfbench's tracer wraps it",
    "haar_mode_unitary": "perfbench's apply op and the tests draw single Haar unitaries "
                         "through it",
    "enumerate_cliffords": "the group enumeration the Clifford and shadow tests check "
                           "against; perfbench times it",
    "recording": "the opt-in switch for counters and spans; the tests turn it on",
    "bqp_hardness_instance": "paper check: the BQP-hardness construction",
    "diagonal_permutation_overlap_sweep": "paper check: soundness of the low-rank encoding",
    "verify_first_qubit_claim": "paper check: witnesses fix the control qubit",
}


def _is_command(node) -> bool:
    """A click command or group: decorated by ``<group>.command(...)`` or
    ``<group>.group(...)``."""
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(f, ast.Attribute) and f.attr in ("command", "group"):
            return True
    return False


def _surface():
    """(non-dunder definitions as module-level or Class.method names,
    every bare name referenced anywhere in src/, every attribute name)."""
    defs, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{node.name}.{m.name}", m) for m in node.body
                            if isinstance(m, ast.FunctionDef))
    public = {q: d for q, d in defs.items()
              if not q.rpartition(".")[2].startswith("__") and not _is_command(d)}
    return public, names, attrs


def _referenced(qualname: str, names: set, attrs: set) -> bool:
    """A method through attribute access; anything else by name as well."""
    cls, _, name = qualname.rpartition(".")
    return name in attrs or not cls and name in names


def test_every_public_definition_has_a_caller_in_src():
    public, names, attrs = _surface()
    unused = sorted(q for q in public if not _referenced(q, names, attrs) and q not in KEPT)
    assert not unused, f"unreferenced in src/: {unused}"


def test_kept_names_are_still_defined():
    public, _, _ = _surface()
    assert not set(KEPT) - set(public)
