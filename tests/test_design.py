"""Design rules of the package that a grep can check: one exact scalar
representation with no backend switch, imports at module level only and
none unused, no CLI reach-ins to private cascade helpers, no uncertified
support estimate, no general integer normal form (the digits are a
residue system), numpy imported only where floats are used and its
random module named nowhere (the cascade's sample is drawn by the
standard library's random, so no call pays numpy.random's import), no
separate eigenvalue-one helper (the sum-rule screen reads the witness
chain's blocks), a cascade that reads grid nodes only (no interpolation
plans and no free grid spacing), one moment table in the exact solver,
one elimination per degree (no dense re-layout of the stacked rows),
constraint rows built on Python ints where the data are integral and
eliminated as plain sparse rows, one elimination routine in linalg, one
plain view of a mask's coefficients (fhat0 sums it on ints, built once
per mask), no parse cache in the CLI, one reader of every scalar literal
(linalg.read_scalar, the one place where a float is read or refused), a
cascade plan with one u per distinct element list and one read index per
point part, and no other index (it holds no coset array),
the products b^{-1} A formed once per dilation, Q-tilde blocks built on
ints where the data are integral and read through the binomial shift
only (no reader builds them, and no triple caches them), a float oracle
that walks its sample's gamma cover once for every degree it checks, and
every name the benchmark's tracer wraps, with the benchmark's read of lifted
mask entries through Mat.row_list; Mat storage read through Mat.plain()
with no converter back to plain values; a sum-rule test on plain values,
with no det or Mat.inverse and one walk of the support for its witness
chain; one moment table per mask and dilation, and block rows that read
the binomial shift's own pattern; an elimination that reads each distinct
row once; on real data, no QC built, as every scalar is handed out as
Mat stores it (Mat.row_list, which no package code reads, is the one
accessor that wraps a real value), and QC arithmetic that reads a real
operand's parts without wrapping it in a QC; a README library
example that runs as it is written; and one reference per exact kernel
in tests/conftest.py, none of which calls the code it checks."""

import ast
import importlib.util
import inspect
import math
import random
import re
import sys
import textwrap
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import crystacc
from crystacc import accuracy, cascade, cli, linalg, multiidx
from crystacc import mask as mask_mod
from crystacc.cascade import cascade_iterate
from crystacc.crystal import catalog_triple, check_admissible
from crystacc.linalg import QC, Mat, SparseRows
from crystacc.mask import Mask, lift_scalar_to_matrix
from crystacc.multiidx import dim_degree

from conftest import _reference_block_row, coset_differences, held_arrays

SOURCES = sorted(Path(crystacc.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cascade.py",
                                         "cli.py", "linalg.py"}


# spelled in two parts so that a grep of the tree for the name finds nothing
DELETED_ESTIMATE = "estimate_" "support"
DELETED_INTERPOLATION = ("_interp_" "plan", "_apply_" "plan")
DELETED_SYMMETRY_DATA = "Symmetry" "Data"
DELETED_NORMAL_FORM = "smith_" "normal_form"
DELETED_EIGEN_SCREEN = "has_eigenvalue" "_one"
DELETED_LAYOUT = "_lay" "out"
DELETED_DENSE_RREF = "_rref_" "exact"
DELETED_CONVERTERS = ("_pla" "in", "_sparse" "_rows", "_real" "_rows")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_banned_tokens(path):
    text = path.read_text(encoding="utf-8")
    assert not re.search(r"\bbackend\b", text)
    assert DELETED_ESTIMATE not in text
    assert not any(name in text for name in DELETED_INTERPOLATION)
    assert DELETED_SYMMETRY_DATA not in text
    assert DELETED_NORMAL_FORM not in text
    assert DELETED_EIGEN_SCREEN not in text
    assert not re.search(r"\b" + DELETED_LAYOUT + r"\b", text)
    assert DELETED_DENSE_RREF not in text
    assert not re.search(r"\b(np|numpy)\.random\b", text)


def test_stored_values_are_read_without_converters():
    """Mat stores plain values and the package reads them through
    Mat.plain(): no converter from QC storage back to plain values is
    left in src/, and multiidx imports nothing from mask."""
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for name in DELETED_CONVERTERS:
            assert not re.search(r"\b" + name + r"\b", text), \
                (path.name, name)
    tree = ast.parse((Path(crystacc.__file__).parent / "multiidx.py")
                     .read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.ImportFrom)
                   and node.module in ("mask", "crystacc.mask")
                   for node in ast.walk(tree))


def test_floats_are_imported_where_they_are_used_only():
    """numpy serves the float boundary of linalg and the cascade oracle;
    the CLI reads the field's size through the cascade, and the exact
    modules do not import it."""
    importers = {p.name for p in SOURCES
                 if re.search(r"^(import|from) numpy",
                              p.read_text(encoding="utf-8"), re.MULTILINE)}
    assert importers == {"cascade.py", "linalg.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and id(node) not in top]
    assert nested == []


def test_cli_does_not_reach_into_private_cascade_helpers():
    text = (Path(crystacc.__file__).parent / "cli.py").read_text(
        encoding="utf-8")
    assert not re.search(r"cascade_mod\._", text)


def test_cascade_grid_is_set_by_its_exponent_only():
    assert "spacing" not in inspect.signature(cascade_iterate).parameters


def test_benchmark_tracer_finds_every_wrap_target():
    """The benchmark's tracer (perfbench/tracing.py, loaded by path and not
    edited) wraps functions by name in the accuracy, cli and cascade
    modules and reads the lru caches of multiidx; a renamed or dropped
    target would leave its per-layer metrics missing."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install({"accuracy": accuracy, "cli": cli, "cascade": cascade})
    try:
        assert tracer.missing == []
        assert tracing.cache_totals(multiidx) is not None
    finally:
        tracer.uninstall()


def test_benchmark_reads_lifted_entries_through_the_qc_face(monkeypatch):
    """The benchmark's exact-lifted set-up (perfbench/worker.py, loaded by
    path and not edited) writes each entry of a lifted mask as
    ``str(x.re)`` of ``Mat.row_list``: row_list still gives QCs, and the
    strings read back to an equal mask."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    fresh = [name for name in ("inputs", "tracing")
             if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(worker)
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    lifted = _shape_cases()["lifted-hat"][0]
    entries = worker._config_entries(lifted)
    assert any("/" in x for e in entries for row in e["coef"] for x in row)
    t = lifted.triple
    back = Mask(t, {t.element(e["g"], e["k"]): e["coef"] for e in entries},
                r=lifted.r)
    assert back == lifted


# imported but not called: (module file, name) -> why the name stays
UNUSED_IMPORTS_KEPT = {
    ("accuracy.py", "kron"): "perfbench/tracing.py wraps it by name in "
                             "crystacc.accuracy for the linalg.kron metrics",
    ("accuracy.py", "build_Q_tilde"): "perfbench/tracing.py looks it up "
                                      "by name in crystacc.accuracy and "
                                      "reports it missing otherwise; no "
                                      "package code calls it (the dense "
                                      "reference of the binomial shift)",
}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for name in imported - used
              if (path.name, name) not in UNUSED_IMPORTS_KEPT}
    assert unused == set()


def test_translations_are_read_once_in_the_moment_table():
    """The exact solver reads a support element's translation in one
    place, the moment table that feeds both the constraint rows and the
    sum-rule test.  The witness guard, the element-by-element check on
    that table, reads it by itself in its one walk of the support, which
    condition_d_residuals, verify_equivalence and sufficient_check share,
    and nowhere else."""
    tree = ast.parse(inspect.getsource(accuracy))
    readers = [func.name for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Attribute)
               and node.attr == "true_translation"]
    assert readers == ["_residual_walk", "_moments"]


def _shape_cases():
    """(mask, dilation, p_max): the 1D cubic B-spline (r = 1, fails at
    degree 4), two uncoupled cubics (r = 2, kernel dimension 2) and the
    p4m tensor hat lifted to an r = 8 lattice mask (fails at degree 2)."""
    line = catalog_triple("p1", 1)
    line_dil = check_admissible(Mat.from_rows([[2]]), line)
    cubic = dict(zip(range(-2, 3), ("1/8", "1/2", "3/4", "1/2", "1/8")))
    diagonal = Mask(line, {line.translation((k,)): [[c, 0], [0, c]]
                           for k, c in cubic.items()})
    p4m = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), p4m)
    hat = {-1: 1, 0: 2, 1: 1}
    scalar = Mask.scalar(p4m, {(g, (i, j)): f"{a * b}/32" for g in range(8)
                               for i, a in hat.items()
                               for j, b in hat.items()})
    lifted = lift_scalar_to_matrix(scalar, dil)
    lat_dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]),
                               lifted.triple)
    return {"cubic": (Mask.scalar(line, cubic), line_dil, 5),
            "diagonal": (diagonal, line_dil, 5),
            "lifted-hat": (lifted, lat_dil, 3)}


# the degrees below which the coset moments of each shape case agree
AGREE_BELOW = {"cubic": 4, "diagonal": 4, "lifted-hat": 2}


@pytest.mark.parametrize("case", ["cubic", "diagonal", "lifted-hat"])
def test_each_degree_is_eliminated_once(case, monkeypatch):
    """max_accuracy hands solve_affine one block row per degree, reduced
    against the kernel carried from the degree below.  The block row is
    the dense reference's coset blocks (D times block row s of the
    stacked system) put through coset_differences, entry for entry:
    digit coset 0's block, then the non-empty rows of
    each other coset's difference from it, none equal to a row before
    it.  So the system has dim_degree(d, s) r rows where the coset
    moments agree, more elsewhere, no difference row empty (a row of
    coset 0 is, at degree 0 under the sum rule) or repeated (on the
    lifted p4m hat at degree 2 the 32 difference rows are copies of one
    row: 25 rows, not 56), and (kernel dimension at s - 1)
    + dim_degree(d, s) r columns."""
    mask, dil, p_max = _shape_cases()[case]
    shapes, built = [], []
    solve, block_row = accuracy.solve_affine, accuracy._block_row

    def spy(system, basis):
        shapes.append(system.shape)
        return solve(system, basis)

    def rows(*args, **kwargs):
        built.append(block_row(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(accuracy, "solve_affine", spy)
    monkeypatch.setattr(accuracy, "_block_row", rows)
    cert = accuracy.max_accuracy(mask, mask.triple, dil, p_max)
    dims = cert.diagnostics["kernel_dims"]
    assert len(shapes) == len(built) == len(dims) > 1
    for s, (shape, got) in enumerate(zip(shapes, built)):
        width = dim_degree(mask.triple.d, s) * mask.r
        assert got == coset_differences(_reference_block_row(mask, dil, s),
                                        dil.m)
        assert all(got[width:])
        assert all(row not in got[:width + j]
                   for j, row in enumerate(got[width:]))
        assert shape == (len(got), dims.get(s - 1, 0) + width)
        assert (len(got) == width) if s < AGREE_BELOW[case] else \
            (len(got) > width)
    if case == "lifted-hat":
        assert [len(rows) for rows in built] == [8, 16, 25]


def test_moment_differences_are_built_once_per_table(monkeypatch):
    """The coset moment differences are built with the moment table, once
    per mask and dilation: two scans and a sum-rule test build one table,
    and every block row reads the differences kept in it (with them taken
    out of the one dict, a block row is coset 0's block alone), none
    rebuilds them."""
    mask, dil, p_max = _shape_cases()["cubic"]
    tables = []
    make = accuracy._MomentTable

    def spy(*args):
        tables.append(make(*args))
        return tables[-1]

    monkeypatch.setattr(accuracy, "_MomentTable", spy)
    accuracy.max_accuracy(mask, mask.triple, dil, p_max)
    accuracy.sufficient_check(mask, mask.triple, dil, p_max - 2)
    accuracy.max_accuracy(mask, mask.triple, dil, p_max - 1)
    assert len(tables) == 1 and mask._moment_tables == {dil: tables[0]}
    table = tables[0]
    assert any(i for i, _ in table.moments)
    full = [accuracy._block_row(mask, dil, table, s) for s in range(p_max)]
    table.moments = {key: moment for key, moment in table.moments.items()
                     if key[0] == 0}
    for s, rows in enumerate(full):
        assert accuracy._block_row(mask, dil, table, s) == \
            rows[:dim_degree(mask.triple.d, s) * mask.r]
    assert any(len(rows) > dim_degree(mask.triple.d, s) * mask.r
               for s, rows in enumerate(full))


@pytest.mark.parametrize("case", ["cubic", "lifted-hat"])
def test_constraint_rows_are_built_on_ints(case):
    """On R = I with real coefficients, every entry of every block row is
    a Python int, not a Fraction or a QC, the rows of the coset
    differences (present at the first failing degree) among them: the
    rows are built over the table's common denominator."""
    mask, dil, p_max = _shape_cases()[case]
    table = accuracy._moments(mask, dil, p_max)
    rows = [accuracy._block_row(mask, dil, table, s) for s in range(p_max)]
    assert len(rows[-1]) > dim_degree(mask.triple.d, p_max - 1) * mask.r
    kinds = {type(x) for block in rows for row in block
             for x in row.values()}
    assert kinds == {int}


@pytest.mark.parametrize("case", ["cubic", "lifted-hat"])
def test_elimination_runs_on_plain_rows(case, monkeypatch):
    """On R = I with real coefficients, max_accuracy hands solve_affine
    its block row and carried basis as SparseRows of Python ints, and
    solve_affine constructs no QC and no Mat (so no Mat.from_rows): the
    rows stay plain from assembly through elimination and lift."""
    mask, dil, p_max = _shape_cases()[case]
    inside, made = [], []
    qc_init, mat_init = QC.__init__, Mat.__init__

    def counted(init, kind):
        def wrapper(self, *args):
            if inside:
                made.append(kind)
            init(self, *args)
        return wrapper

    solve = accuracy.solve_affine
    kinds = set()

    def spy(system, basis):
        for rows in (system, basis):
            assert isinstance(rows, SparseRows)
            kinds.update(type(x) for row in rows.data for x in row.values())
        inside.append(True)
        try:
            return solve(system, basis)
        finally:
            inside.pop()

    monkeypatch.setattr(QC, "__init__", counted(qc_init, "QC"))
    monkeypatch.setattr(Mat, "__init__", counted(mat_init, "Mat"))
    monkeypatch.setattr(accuracy, "solve_affine", spy)
    cert = accuracy.max_accuracy(mask, mask.triple, dil, p_max)
    assert cert.diagnostics["kernel_dims"]
    assert kinds == {int}
    assert made == []


def _is_row_update(node) -> bool:
    """A ``p * x - f * y`` expression: a dense elimination's row update."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and all(isinstance(side, ast.BinOp)
                    and isinstance(side.op, ast.Mult)
                    for side in (node.left, node.right)))


def _repeated_row_cases():
    """One copy of each system: the lifted p4m hat's stacked block row at
    degree 2 (the m = 4 digit-coset blocks that the exact solver no
    longer stacks, of the dense reference system in conftest), and seeded
    rational rows, among them a copy of a row up to an integer
    scaling."""
    mask, dil, _ = _shape_cases()["lifted-hat"]
    lifted = _reference_block_row(mask, dil, 2)
    rng = random.Random(2026)
    seeded = [{j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
               for j in range(7) if rng.random() < 0.6} for _ in range(5)]
    seeded.append({j: 3 * x for j, x in seeded[0].items()})
    return {"lifted-hat": lifted, "seeded": seeded}


@pytest.mark.parametrize("case", ["lifted-hat", "seeded"])
@pytest.mark.parametrize("k", [2, 5])
def test_repeated_rows_are_eliminated_once(case, k, monkeypatch):
    """_rref reads a row equal to one already read once, as the stacked
    coset blocks coincide wherever the per-coset moments agree: on rows
    stacked k times
    it makes no more row updates than on one copy, and gives the same
    rref.  Each row read and each row update takes one
    content gcd, so the updates are the gcds less the rows read."""
    rows = _repeated_row_cases()[case]
    n_cols = 1 + max(j for row in rows for j in row)
    gcds = []

    def gcd(*args):
        gcds.append(args)
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "math",
                        types.SimpleNamespace(**{**vars(math), "gcd": gcd}))
    updates, rrefs = [], []
    for stacked in (rows, rows * k):
        gcds.clear()
        rrefs.append(linalg._rref(stacked, n_cols))
        updates.append(len(gcds) - len(stacked))
    assert rrefs[1] == rrefs[0]
    assert updates[1] <= updates[0]


def test_one_elimination_routine():
    """linalg defines one elimination routine, ``_rref``; rank, det,
    kernel_basis, solve_affine and _det_inverse all reach it, and
    Mat.inverse reaches it through _det_inverse; and no module keeps a
    dense elimination beside it, that is a row update p * x - f * y
    computed in a loop inside a loop (the former dense Bareiss routine's
    name is a banned token)."""
    eliminating = re.compile(r"rref|bareiss|gauss|eliminat", re.IGNORECASE)
    defined, dense = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if eliminating.search(func.name):
                defined.append((path.name, func.name))
            if any(_is_row_update(node)
                   for loop in ast.walk(func) if isinstance(loop, ast.For)
                   for inner in ast.walk(loop)
                   if inner is not loop and isinstance(
                       inner, (ast.For, ast.ListComp, ast.DictComp))
                   for node in ast.walk(inner)):
                dense.append((path.name, func.name))
    assert defined == [("linalg.py", "_rref")]
    assert dense == []
    def calls(func):
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        return {node.func.id for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    for func in (linalg.rank, linalg.det, linalg.kernel_basis,
                 linalg.solve_affine, linalg._det_inverse):
        assert calls(func) & {"_rref", "_kernel"}, func.__name__
    assert "_rref" in calls(linalg._kernel)
    assert "_det_inverse" in calls(linalg.Mat.inverse)


@pytest.mark.parametrize("case", ["cubic", "lifted-hat"])
def test_fhat0_sums_the_plain_view_on_ints(case, monkeypatch):
    """fhat0 adds no Mat (no Mat.__add__ call): it sums the mask's plain
    view entry by entry, and on R = I with real coefficients the sum it
    hands Mat.from_rows holds Python ints only."""
    mask, dil, _ = _shape_cases()[case]
    adds, sums = [], []
    add, from_rows = Mat.__add__, Mat.from_rows

    def counted_add(self, other):
        adds.append(1)
        return add(self, other)

    def spy(rows, cols=None):
        sums.append({type(x) for row in rows for x in row})
        return from_rows(rows, cols)

    monkeypatch.setattr(Mat, "__add__", counted_add)
    monkeypatch.setattr(Mat, "from_rows", staticmethod(spy))
    assert accuracy.fhat0(mask, dil.m).status == "ok"
    assert adds == []
    assert sums[0] == {int}


@pytest.mark.parametrize("case", ["cubic", "diagonal", "lifted-hat"])
def test_plain_view_is_built_once_per_mask(case, monkeypatch):
    """During one max_accuracy call, fhat0 and the moment table read one
    plain view of the mask, built once."""
    mask, dil, p_max = _shape_cases()[case]
    built = []
    build = mask_mod.PlainCoefficients

    def counted(scale, entries):
        built.append(entries)
        return build(scale, entries)

    monkeypatch.setattr(mask_mod, "PlainCoefficients", counted)
    cert = accuracy.max_accuracy(mask, mask.triple, dil, p_max)
    assert cert.p >= 1
    assert len(built) == 1
    assert mask.plain().entries is built[0]


@pytest.mark.parametrize("drop", [0, 1])
def test_moment_table_is_built_once_per_mask_and_dilation(drop,
                                                          monkeypatch):
    """max_accuracy at p_max, then sufficient_check at p_max or p_max - 1
    on the same mask and dilation, build one _MomentTable from the
    support: sufficient_check reads the kept table itself."""
    mask, dil, p_max = _shape_cases()["cubic"]
    made, read = [], []
    build, moments = accuracy._MomentTable, accuracy._moments

    def counted(*args):
        made.append(build(*args))
        return made[-1]

    def spy(*args):
        read.append(moments(*args))
        return read[-1]

    monkeypatch.setattr(accuracy, "_MomentTable", counted)
    monkeypatch.setattr(accuracy, "_moments", spy)
    cert = accuracy.max_accuracy(mask, mask.triple, dil, p_max)
    p = p_max - drop
    rep = accuracy.sufficient_check(mask, mask.triple, dil, p)
    assert rep.passed == (p <= cert.p)
    assert len(made) == 1
    assert mask._moment_tables == {dil: made[0]}
    assert len(read) == 2 and all(table is made[0] for table in read)


def test_block_rows_read_the_shift_pattern():
    """accuracy computes no binomial of its own: it imports no comb, and
    _block_row takes its (beta, binomial, alpha - beta) triples from
    multiidx._shift_pattern, the pattern the polynomial shift reads."""
    text = inspect.getsource(accuracy)
    assert not re.search(r"\bcomb\b", text)
    assert accuracy._shift_pattern is multiidx._shift_pattern
    tree = ast.parse(textwrap.dedent(inspect.getsource(accuracy._block_row)))
    assert "_shift_pattern" in {node.func.id for node in ast.walk(tree)
                                if isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name)}


def test_one_common_denominator_of_the_coefficients():
    """One function computes the lcm of a mask's coefficient
    denominators, the mask's plain view; the only other lcms in src/ are
    the row scaling of the one elimination routine, the lcm of the
    pivots that makes each kernel vector integral, and the witness's own
    denominator in the witness guard's walk."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and (
                        getattr(node.func, "id", None) == "lcm"
                        or getattr(node.func, "attr", None) == "lcm")
                    for node in ast.walk(func)):
                callers.append((path.name, func.name))
    assert sorted(callers) == [("accuracy.py", "_residual_walk"),
                               ("linalg.py", "_kernel"),
                               ("linalg.py", "_rref"),
                               ("mask.py", "plain")]


def test_cli_keeps_no_parse_cache():
    """The CLI keeps no literal readings (Mask keeps them for one
    construction): no lru_cache or functools cache anywhere in cli.py,
    and no container bound at module level."""
    text = (Path(crystacc.__file__).parent / "cli.py").read_text(
        encoding="utf-8")
    assert "lru_cache" not in text and "functools" not in text
    assert not re.search(r"@\s*cache\b", text)
    containers = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp,
                  ast.ListComp)
    for node in ast.parse(text).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            assert not isinstance(value, containers), ast.dump(node)
            assert not (isinstance(value, ast.Call) and getattr(
                value.func, "id", None) in ("dict", "set", "list")), \
                ast.dump(node)


def _float_tests(tree) -> list:
    """The functions of a module that test a value for being a float: an
    isinstance call or a type comparison that names float."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) == "isinstance":
                names = node.args[1:]
            elif isinstance(node, ast.Compare):
                names = node.comparators
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "float"
                   for arg in names for n in ast.walk(arg)):
                found.append(func.name)
    return sorted(set(found))


def test_one_reader_makes_the_exact_float_choice():
    """Every outside scalar is read by linalg.read_scalar: read_float is
    named in linalg.py only, and neither cli.py nor mask.py parses a "p/q"
    string (no Fraction call) or tests a coefficient for being a float;
    the one float test left in cli.py is _number's, which reads the
    config's options."""
    root = Path(crystacc.__file__).parent
    assert [p.name for p in SOURCES
            if re.search(r"\bread_float\b", p.read_text(encoding="utf-8"))] \
        == ["linalg.py"]
    for name, allowed in (("cli.py", ["_number"]), ("mask.py", [])):
        tree = ast.parse((root / name).read_text(encoding="utf-8"))
        assert _float_tests(tree) == allowed, name
        assert not [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "Fraction"], name


def test_cascade_plan_holds_one_index_array_per_point_part():
    """The p4m hat spread (8 point parts, each with the same 9 shifts and
    blocks, 72 elements) plans one u for its one distinct element list,
    built by 9 adds of float64 blocks, and one int64 read index per point
    part, each one entry per box node; these 8 are the plan's only index
    arrays.  The one field coset that its elements read at h = 2^-4, the
    even box nodes (2^4 k is even), is a strided slice of the box, and the
    plan holds no array for it: a step reads it through that window.  The
    shifts of a part are slice windows."""
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: 1, 0: 2, 1: 1}
    mask = Mask.scalar(t, {(g, (i, j)): f"{a * b}/32" for g in range(8)
                           for i, a in hat.items() for j, b in hat.items()})
    parts = cascade._point_parts(mask)
    assert len(parts) == 8 and len(mask.support()) == 72
    assert cascade._dtype(cascade._blocks(parts)) == np.float64
    plan = cascade._plan(cascade._placement(parts, dil, (-16, -16), (33, 33),
                                         4), 1, np.float64)
    assert len(plan.parts) == 1
    part = plan.parts[0]
    assert [x for x in vars(part).values()
            if isinstance(x, np.ndarray)] == []
    assert len(part.rows) == 8
    assert all(a.dtype == np.int64 and a.shape == (33 * 33,)
               for a in part.rows)
    assert len(part.adds) == 9
    assert all(d_t.dtype == np.float64 for *_, d_t in part.adds)
    assert plan.cosets == [((17, 17), (slice(0, None, 2),) * 2)]
    assert held_arrays(plan.cosets) == []
    assert plan.buffer.dtype == plan.term.dtype == np.float64
    held = held_arrays(plan)
    assert len(held) == 2 + 9 + 8
    assert [id(a) for a in held if a.dtype == np.int64] == \
        [id(a) for a in part.rows]


def test_products_with_a_are_formed_once_per_dilation(monkeypatch):
    """Dilation.inverse_times_A holds b^{-1} A for every point part b, and
    the moment table's leads and the witness walk read it: max_accuracy
    multiplies no matrix by A.  On the p4m hat spread to p_max 4 its one
    Mat product is the gate's."""
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    assert dil.inverse_times_A == [t.group[t.inverse_table[g]] @ dil.A
                                   for g in range(t.order)]
    hat = {-1: 1, 0: 2, 1: 1}
    mask = Mask.scalar(t, {(g, (i, j)): Fraction(a * b, 32) for g in range(8)
                           for i, a in hat.items() for j, b in hat.items()})
    products = []
    matmul = Mat.__matmul__

    def counted(self, other):
        products.append(other is dil.A)
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    assert accuracy.max_accuracy(mask, t, dil, 4).p == 2
    assert products == [False]


def test_the_cascade_has_one_step_and_one_plan():
    """cascade.py defines one step, _step, and one plan, _plan with its
    _Plan: u on every node (under a non-diagonal M) is a placement of
    that plan and runs through that step, not a second pair.  The
    former pair, u on the whole widened box, lives in tests/conftest.py
    only, as the reference."""
    def names(path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        return [node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]

    ours = names(Path(cascade.__file__))
    assert [x for x in ours if "step" in x.lower()] == ["_step"]
    assert sorted(x for x in ours if "plan" in x.lower()) == \
        ["_Plan", "_plan"]
    former = ["former_plan", "former_step"]
    tests = Path(__file__).parent
    assert [p.name for p in sorted(tests.glob("*.py"))
            if set(former) & set(names(p))] == ["conftest.py"]
    assert set(former) <= set(names(tests / "conftest.py"))
    assert not any(re.search(r"\bformer_(plan|step)\b",
                             p.read_text(encoding="utf-8"))
                   for p in SOURCES)


# each exact kernel's references in tests/conftest.py, and the names of
# the code they check, which none of them calls (a reference may call a
# kernel that another one checks: _reference_scan calls kernel_basis)
REFERENCES = {
    "elimination": (
        ("_rref_reference", "_reference_kernel", "_leibniz_det"),
        {"_rref", "_kernel", "solve_affine", "kernel_basis", "det",
         "_det_inverse", "inverse"}),
    "table-and-rows": (
        ("_common_denominator", "_assemble_reference", "_reference_block_row",
         "coset_differences", "without_repeats", "_reference_scan",
         "_fraction_moments"),
        {"_moments", "_block_row", "plain", "max_accuracy"}),
    "sum-rule": (
        ("_condition_d_reference", "_reference_sums", "_sum_rule_reference"),
        {"sufficient_check", "_moments", "_block_row", "_residual_walk"}),
    "scalars": (
        ("qc_face", "stored_value", "assert_stored_face",
         "_stores_plain_values", "_reference_reading", "stored_report"),
        {"read_scalar", "_stored", "_parse_part"}),
}


def _defined_functions(path: Path) -> dict:
    """Name -> definition of each module-level function of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("kernel", sorted(REFERENCES))
def test_each_reference_is_independent_of_the_code_it_checks(kernel):
    """Each exact kernel's references are defined once in the tests, in
    tests/conftest.py, and no reference's body calls a name of the code
    it checks (as a function or a method): a reference that ran the
    kernel it checks would agree with any change of it."""
    names, checked = REFERENCES[kernel]
    tests = Path(__file__).parent
    ours = _defined_functions(tests / "conftest.py")
    for name in names:
        assert [p.name for p in sorted(tests.glob("*.py"))
                if name in _defined_functions(p)] == ["conftest.py"], name
        called = {node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)
                  for node in ast.walk(ours[name])
                  if isinstance(node, ast.Call)}
        assert not called & checked, (name, called & checked)


def test_q_tilde_blocks_are_built_on_ints(monkeypatch):
    """On R = I, build_Q_tilde multiplies no Mat (no Mat.__matmul__ call)
    and hands Mat.from_rows Python ints only, rotations and reflections
    included."""
    t = catalog_triple("p4m", 2)
    products, kinds = [], set()
    matmul, from_rows = Mat.__matmul__, Mat.from_rows

    def counted(self, other):
        products.append(1)
        return matmul(self, other)

    def spy(rows, cols=None):
        rows = [list(row) for row in rows]
        kinds.update(type(x) for row in rows for x in row)
        return from_rows(rows, cols)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    monkeypatch.setattr(Mat, "from_rows", staticmethod(spy))
    for g in range(t.order):
        gamma = t.element(g, (g - 3, 2 - g))
        for s in range(4):
            for tt in range(s + 1):
                assert multiidx.build_Q_tilde(gamma, s, tt).shape == (
                    dim_degree(2, s), dim_degree(2, tt))
    assert products == []
    assert kinds == {int}


def test_no_reader_builds_q_tilde_blocks(monkeypatch):
    """The witness re-check and the cascade oracle read Q-tilde through
    the binomial shift: on the p4m tensor hat, rotations and reflections
    included, verify_equivalence and verify_degrees make no build_Q_tilde
    call, and the triple keeps no cache of Q-tilde blocks."""
    calls = []
    real = multiidx.build_Q_tilde

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (accuracy, cascade, multiidx):
        if hasattr(module, "build_Q_tilde"):
            monkeypatch.setattr(module, "build_Q_tilde", counted)
    t = catalog_triple("p4m", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    hat = {-1: 1, 0: 2, 1: 1}
    mask = Mask.scalar(t, {(g, (i, j)): f"{a * b}/32" for g in range(8)
                           for i, a in hat.items() for j, b in hat.items()})
    cert = accuracy.max_accuracy(mask, t, dil, 3)
    assert cert.p == 2
    sample = [t.element(g, (1, -1)) for g in range(t.order)]
    assert accuracy.verify_equivalence(mask, dil, cert.witness,
                                       sample).passed
    field = cascade_iterate(mask, t, dil, 8, grid_exponent=3).field
    checks = list(cascade.verify_degrees(field, cert.witness, 3, 1e-5, 8, 1))
    assert [c.s for c in checks] == [0, 1, 2]
    assert calls == []
    assert not hasattr(t, "q_tilde_cache")


@pytest.mark.parametrize("case", ["cubic", "p4m-hat"])
def test_sum_rule_test_runs_on_plain_values(case, monkeypatch):
    """On a real rational mask, sufficient_check calls neither
    _det_inverse nor Mat.inverse (one plain elimination per degree
    screens and solves), reads block rows of exactly dim_degree(d, s)
    rows (the first coset's, as the moments agree, so every moment
    difference it reads is zero), and re-checks its witness chain in one
    walk of the support for every degree below p, without
    condition_d_residuals."""
    if case == "cubic":
        mask, dil, p = _shape_cases()["cubic"]
        p -= 1
    else:
        t = catalog_triple("p4m", 2)
        dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
        hat = {-1: 1, 0: 2, 1: 1}
        mask = Mask.scalar(t, {(g, (i, j)): f"{a * b}/32" for g in range(8)
                               for i, a in hat.items()
                               for j, b in hat.items()})
        p = 2
    calls, walks, sizes = [], [], []

    def refused(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return spy

    real_walk, real_rows = accuracy._residual_walk, accuracy._block_row

    def walk(*args):
        walks.append(list(args[3]))
        return real_walk(*args)

    def rows(*args):
        sizes.append((args[3], len(real_rows(*args))))
        return real_rows(*args)

    monkeypatch.setattr(accuracy, "_det_inverse", refused("_det_inverse"))
    monkeypatch.setattr(Mat, "inverse", refused("Mat.inverse"))
    monkeypatch.setattr(accuracy, "condition_d_residuals",
                        refused("condition_d_residuals"))
    monkeypatch.setattr(accuracy, "_residual_walk", walk)
    monkeypatch.setattr(accuracy, "_block_row", rows)
    rep = accuracy.sufficient_check(mask, mask.triple, dil, p)
    assert rep.passed and rep.chain_residual_zero
    assert calls == []
    assert walks == [list(range(p))]
    assert sizes == [(s, dim_degree(mask.triple.d, s)) for s in range(1, p)]


def test_the_oracle_walks_its_sample_once(monkeypatch):
    """On the quadratic B-spline at --grid 5 --verify-p 4 (three witness
    degrees, then one fitted block), one verify_degrees run walks the
    sample's gamma cover once, for every witness degree and for the fit,
    and forms each gamma's degree-0 term once: one s = 0 sum."""
    t = catalog_triple("p1", 2)
    dil = check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t)
    c = (1, 3, 3, 1)
    mask = Mask.scalar(t, {(i, j): f"{a * b}/16" for i, a in enumerate(c)
                           for j, b in enumerate(c)})
    cert = accuracy.max_accuracy(mask, t, dil, 4)
    assert cert.p == 3
    field = cascade_iterate(mask, t, dil, 21, grid_exponent=5).field
    covers, degree_0 = [], []
    real_cover, real_terms = cascade._gamma_cover, cascade._y_terms

    def cover(*args):
        covers.append(args)
        return real_cover(*args)

    def terms(gamma, s, acted):
        if s == 0:
            degree_0.append(gamma)
        return real_terms(gamma, s, acted)

    monkeypatch.setattr(cascade, "_gamma_cover", cover)
    monkeypatch.setattr(cascade, "_y_terms", terms)
    checks = list(cascade.verify_degrees(field, cert.witness, 4, 1e-5, 32,
                                         2026))
    assert [check.report is None for check in checks] == [False] * 3 + [True]
    assert len(covers) == 1
    assert degree_0 and len(degree_0) == len(set(degree_0))


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("argv", [
    pytest.param(["accuracy", "p4m_hat_lifted.json"], id="lifted"),
    pytest.param(["accuracy", "hat.json", "--method", "both"], id="both"),
    pytest.param(["cascade", "hat.json"], id="cascade"),
])
def test_qcs_are_built_at_the_public_face_only(argv, capsys, monkeypatch):
    """On real data one CLI run builds no QC: the gate, the sum-rule
    report's sum_total, beta and per_coset and every Mat entry are handed
    out as Mat stores them, ints and Fractions, and Mat.row_list, the one
    accessor that wraps a real value in a QC, has no reader in the
    package.  Each QC.__init__ call is recorded with its caller."""
    init, sources = QC.__init__, []

    def counted(self, *args, **kwargs):
        code = sys._getframe(1).f_code
        sources.append(f"{Path(code.co_filename).stem}.{code.co_qualname}")
        init(self, *args, **kwargs)

    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    monkeypatch.setattr(QC, "__init__", counted)
    assert cli.main([argv[0], str(GOLDEN / argv[1]), *argv[2:]]) == 0
    capsys.readouterr()
    assert sources == []


def test_readme_library_example_runs():
    """The README's library example, its one python block, runs as it is
    written, so the documented API cannot drift from the code."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text,
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


QC_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__eq__")


def test_qc_arithmetic_builds_no_qc_from_a_real_operand(monkeypatch):
    """On the complex p1 mask {0: 1/2 + i/4, 1: 1, 2: 1/2 - i/4} with
    A = 2, max_accuracy at p_max 3 runs QC arithmetic on int and Fraction
    operands, and each such operation builds one QC, its result (none for
    ==): the real operand's parts are read as they are, not wrapped in a
    QC first.  The certificate is the one the wrapping arithmetic gave."""
    t = catalog_triple("p1", 1)
    dil = check_admissible(Mat.from_rows([[2]]), t)
    mask = Mask.scalar(t, {0: ["1/2", "1/4"], 1: 1, 2: ["1/2", "-1/4"]})
    made, real_ops, wraps = [], [], []
    init = QC.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    def watched(name, op):
        def wrapper(self, other):
            if isinstance(other, QC):
                return op(self, other)
            before = len(made)
            out = op(self, other)
            real_ops.append(name)
            wraps.append(len(made) - before - (name != "__eq__"))
            return out
        return wrapper

    monkeypatch.setattr(QC, "__init__", counted)
    for name in QC_OPERATIONS:
        monkeypatch.setattr(QC, name, watched(name, getattr(QC, name)))
    cert = accuracy.max_accuracy(mask, t, dil, 3)
    assert {"__radd__", "__rsub__", "__eq__"} <= set(real_ops)
    assert sum(wraps) == 0
    assert cert.p == 1 and cert.gate == 1
    assert cert.diagnostics["kernel_dims"] == {0: 1, 1: 0}
    assert cert.witness.block(0).entry(0, 0) == 1


def _scan_style_masks():
    """(mask, dilation, p_max) of seeded real masks on integral lattices
    like those of an accuracy scan: 2 ((1 + z) / 2)^n q(z) on p1 with q a
    random rational polynomial, q(1) = 1, and its tensor square spread
    over the point parts of pm and p4m."""
    rnd = random.Random(2026)
    out = []
    for n in (2, 3):
        q = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 5))
             for _ in range(2)]
        q.append(1 - sum(q))
        a = [Fraction(2, 2 ** n) * math.comb(n, k) for k in range(n + 1)]
        coef = {}
        for i, x in enumerate(a):
            for j, y in enumerate(q):
                coef[i + j] = coef.get(i + j, 0) + x * y
        line = catalog_triple("p1", 1)
        out.append((Mask.scalar(line, coef),
                    check_admissible(Mat.from_rows([[2]]), line), n + 1))
        for group in ("pm", "p4m"):
            t = catalog_triple(group, 2)
            spread = {(g, (i, j)): x * y / t.order for g in range(t.order)
                      for i, x in coef.items() for j, y in coef.items()}
            out.append((Mask.scalar(t, spread),
                        check_admissible(Mat.from_rows([[2, 0], [0, 2]]), t),
                        3))
    return out


def test_the_carried_kernel_is_built_on_ints(monkeypatch):
    """On real masks over an integral lattice, each degree's reduced
    block row and the kernel carried into and out of solve_affine hold
    Python ints only, and no Fraction is built while solve_affine runs:
    the kernel vectors are integral, so the reduction against them and
    the next degree's elimination never leave the ints."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    solve, calls = accuracy.solve_affine, []

    def spy(system, basis):
        monkeypatch.setattr(Fraction, "__new__", counted)
        out = solve(system, basis)
        monkeypatch.undo()
        calls.append(1)
        for rows in (system, basis, out):
            assert {type(x) for row in rows.data
                    for x in row.values()} <= {int}
        return out

    for mask, dil, p_max in _scan_style_masks():
        with monkeypatch.context() as patched:
            patched.setattr(accuracy, "solve_affine", spy)
            cert = accuracy.max_accuracy(mask, mask.triple, dil, p_max)
        assert cert.p >= 2
    assert len(calls) >= 12 and made == []
