import ast
import tokenize
from pathlib import Path

import pytest

import shvkernel

SOURCE = Path(shvkernel.__file__).parent

#: every module of the package is kept below the step
MODULES = sorted(p.name for p in SOURCE.glob("*.py"))


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(
            1
            for tok in tokenize.tokenize(fh.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        )


@pytest.mark.parametrize("name", MODULES)
def test_module_stays_below_the_parser_token_step(name):
    """CPython 3.11 takes a step of memory to compile a module of more than
    8192 parser tokens: compiling freefield.py at 8970 tokens raised peak RSS
    by 3.4 MB, against 2.5 MB for the 6976 tokens left after the Fock layer
    moved to fock.py.  With bytecode writing off, every process compiles the
    package, so the step showed in the benchmark: the split lowered the
    median peak RSS of fock-screening, whose peak is the import, from 23.96
    to 23.46 MB.  Comments and non-logical newlines do not reach the parser
    and are not counted."""
    assert parser_tokens(SOURCE / name) < 8192


def node_scopes(path: Path, match) -> list:
    """The enclosing scope, as module.Class.function, of every syntax node
    in a module that match accepts."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), (path.stem,))
    return found


def call_scopes(path: Path, match) -> list:
    """The enclosing scope of every call in a module that match accepts."""
    return node_scopes(path, lambda node: isinstance(node, ast.Call) and match(node))


def is_pop_none(call: ast.Call) -> bool:
    """<name>.pop(<key>, None)"""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "pop"
        and isinstance(call.func.value, ast.Name)
        and len(call.args) == 2
        and isinstance(call.args[1], ast.Constant)
        and call.args[1].value is None
    )


def test_one_accumulator():
    """Every sparse sum that drops the entries which cancel goes through
    scalars.add_scaled.  A hand-written accumulate-and-drop-zero loop shows
    as a dict.pop(key, None) call."""
    calls = [scope for name in MODULES for scope in call_scopes(SOURCE / name, is_pop_none)]
    assert calls == ["scalars.add_scaled"]


def is_attribute(node, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def scales_to_common_denominator(node) -> bool:
    """<x>.numerator * (<d> // <x>.denominator), in either factor order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    return any(
        is_attribute(a, "numerator")
        and isinstance(b, ast.BinOp)
        and isinstance(b.op, ast.FloorDiv)
        and is_attribute(b.right, "denominator")
        for a, b in ((node.left, node.right), (node.right, node.left))
    )


def test_one_common_denominator():
    """Every list of rationals kept in integers is brought over one
    denominator by scalars.over_one_den.  A hand-written copy shows as
    x.numerator * (d // x.denominator)."""
    found = [
        scope
        for name in MODULES
        for scope in node_scopes(SOURCE / name, scales_to_common_denominator)
    ]
    assert found == ["scalars.over_one_den"]


def call_name(call: ast.Call):
    """The name a call calls, plain or qualified."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_an_enumerator(call: ast.Call) -> bool:
    """A call of partitions_of or superpartitions_of, plain or qualified."""
    return call_name(call) in ("partitions_of", "superpartitions_of")


def test_one_graded_basis_enumerator():
    """Graded bases (Verma PBW words, Fock pieces) are enumerated once, by
    shv_algebra.graded_tuples through its block helper; the only other
    caller of the partition enumerators is qchar.schur_expand."""
    scopes = {scope for name in MODULES for scope in call_scopes(SOURCE / name, calls_an_enumerator)}
    assert scopes == {"shv_algebra._block_shapes", "qchar.schur_expand"}


def test_fock_columns_stay_on_integers():
    """A sector's weights are cleared to ints once, in _weights, so the
    exactness check runs once per sector and never per hit; the column
    builders and the composition then multiply ints only."""
    freefield = SOURCE / "freefield.py"
    assert call_scopes(freefield, lambda call: call_name(call) == "_cleared") == [
        "freefield.FreeFieldRealization._weights"
    ]
    hot = {
        f"freefield.FreeFieldRealization.{name}"
        for name in ("_l_action", "_g_action", "_accumulate")
    }
    assert not hot & set(call_scopes(freefield, lambda call: call_name(call) == "Fraction"))


def test_verma_closure_stays_on_integers():
    """The submodule closure multiplies integer vectors by the integer symbol
    maps and hands integer rows to the echelon span, exact_linalg's one
    incremental span: no Fraction and no apply_word on that path.  The
    subsingular detector reads the degree's singular vectors from the
    submodule it is given and computes none."""
    verma = SOURCE / "verma.py"

    def scopes(name):
        return {
            scope
            for path in (verma, SOURCE / "exact_linalg.py")
            for scope in call_scopes(path, lambda call: call_name(call) == name)
        }

    path = {
        "verma.Submodule._close": "symbol_map",
        "verma.Submodule._try_add": "insert",
        "exact_linalg.EchelonSpan.insert": "reduce",
        "exact_linalg.EchelonSpan.reduce": None,
    }
    for scope, callee in path.items():
        assert callee is None or scope in scopes(callee)
    for name in ("Fraction", "apply_word"):
        assert not set(path) & scopes(name)
    assert "verma.subsingular_vectors" not in scopes("singular_vectors")


def test_gram_stays_on_integers():
    """The Gram blocks are assembled from the symbol maps, as sums of int
    products (of the polynomial coefficients for a symbolic label): no
    Fraction and no per-word apply_symbol in _gram.  shapovalov_gram hands
    out the cached block, and rank reads its integer rows, so no Fraction is
    built between the two.  The action reads each bracket from its own
    table, so apply_symbol never rebuilds one."""
    verma = SOURCE / "verma.py"

    def scopes(name, path=verma):
        return set(call_scopes(path, lambda call: call_name(call) == name))

    assert "verma._gram" in scopes("symbol_map")
    for name in ("Fraction", "apply_symbol"):
        assert "verma._gram" not in scopes(name)
    assert "verma.shapovalov_gram" not in scopes("Fraction")
    rank_path = {
        f"exact_linalg.{name}"
        for name in ("rank", "_echelon_of", "_rows_of", "_sparsest_first", "_int_echelon")
    }
    assert not rank_path & scopes("Fraction", SOURCE / "exact_linalg.py")
    assert "verma.VermaAction.apply_symbol" not in scopes("super_bracket")


def test_screening_stays_on_integers():
    """The screening modes read a vector's integer numerators and build the
    result over one denominator: no Fraction and no over_one_den in
    _screened, a_mode or lattice_mode (the effective mode is memoized in
    _effective).  a_mode places each template entry as one state, through
    the one definition of the psi^- letters in fock.py, which _psi_minus
    calls too."""
    freefield, fock = SOURCE / "freefield.py", SOURCE / "fock.py"
    owner = "freefield.FreeFieldRealization"
    hot = [f"{owner}.{name}" for name in ("_screened", "a_mode", "lattice_mode")]

    def scopes(path, name):
        return set(call_scopes(path, lambda call: call_name(call) == name))

    def in_hot(scope):
        return any(scope == h or scope.startswith(h + ".") for h in hot)

    for name in ("Fraction", "over_one_den"):
        assert not [s for s in scopes(freefield, name) if in_hot(s)]
    assert f"{owner}._screened" in scopes(freefield, "_effective")

    definitions = [
        (name, node.name)
        for name in MODULES
        for node in ast.walk(ast.parse((SOURCE / name).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_psi_minus")
    ]
    assert sorted(definitions) == [("fock.py", "_psi_minus"), ("fock.py", "_psi_minus_letters")]
    assert scopes(fock, "_psi_minus_letters") == {"fock._psi_minus"}
    placement = f"{owner}.a_mode.row"
    assert scopes(freefield, "_psi_minus_letters") == {placement}
    assert placement not in scopes(freefield, "_psi_minus") | scopes(freefield, "_with_c_letters")


def test_mod_p_rank_is_only_a_bound():
    """rank_mod_p is a lower bound on a rank, never a result: its one caller
    is the subsingular detector, where it can only prove that a kernel has
    no new vector, and no report (cli, acceptance) reads it."""
    calls = [
        scope
        for name in MODULES
        for scope in call_scopes(SOURCE / name, lambda call: call_name(call) == "rank_mod_p")
    ]
    assert calls == ["verma.subsingular_vectors"]
    for name in ("cli.py", "acceptance.py"):
        assert "rank_mod_p" not in (SOURCE / name).read_text()
