"""Table-driven tests for the process-fingerprint normalizer.

The contract (the conservatism ladder): a comment-only edit, a
docstring edit and a reformat each leave the fingerprint unchanged,
while a real body edit (a renamed constant included), a read/write-set
change and a sensitivity change each produce a new one — for
straight-line bodies (the ``ir/`` rows, named for the retired IR rung)
and loopy bodies (the ``ast/`` rows) alike, all on the AST rung.
"""

import ast
import copy
import functools
import importlib.util

import pytest

from repro.analysis.impact import (
    MODE_OPAQUE,
    MODE_RAW_SOURCE,
    MODE_SEMANTIC_AST,
    _SourceSummaries,
    environment_digest,
    process_fingerprint,
)
from repro.cache import ResultCache
from repro.catg.env import VerificationEnv
from repro.kernel import Module, Simulator
from repro.regression.configs import configuration_matrix


def _fingerprint(builder, sources=None):
    """Elaborate the one-process design ``builder`` makes and
    fingerprint its process."""
    sim = Simulator()
    builder(sim)
    sim.elaborate()
    infos = sim.comb_processes + sim.clocked_processes
    assert len(infos) == 1
    return process_fingerprint(infos[0], sources)


# -- builders: each pair differs only in the way its name says --------------
#
# Every builder registers exactly one process named "t.p" over the same
# signals, so any fingerprint difference comes from the body/interface
# delta under test.

def ir_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 7

    def logic():
        out.drive(a.value & MASK)

    top.comb(logic, [a], name="p")


def ir_comment(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 7

    def logic():
        # a comment the normalizer must not see
        out.drive(a.value & MASK)  # trailing note

    top.comb(logic, [a], name="p")


def ir_docstring(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 7

    def logic():
        """Docstrings are semantically inert."""
        out.drive(a.value & MASK)

    top.comb(logic, [a], name="p")


def ir_reformat(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 7

    def logic():
        out.drive(
            (a.value) & (MASK),
        )

    top.comb(logic, [a], name="p")


def ir_const_rename(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    LOW_BITS = 7  # same value as MASK, different name

    def logic():
        out.drive(a.value & LOW_BITS)

    top.comb(logic, [a], name="p")


def ir_body_edit(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 7

    def logic():
        out.drive(a.value | MASK)  # & became |

    top.comb(logic, [a], name="p")


def ir_const_value_edit(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)
    MASK = 3  # different value under the same name

    def logic():
        out.drive(a.value & MASK)

    top.comb(logic, [a], name="p")


def ast_base(sim):
    """A loopy body (a for loop over a local range)."""
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_comment(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        # reduction OR over two taps
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1  # tap
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_docstring(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        """Reduce two taps of ``a`` into one bit."""
        acc = 0
        for shift in (0, 1):
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_reformat(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 1):
            acc |= (
                (a.value >> shift)
                & 1
            )
        out.drive(acc)

    top.comb(logic, [a], name="p")


def ast_body_edit(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic():
        acc = 0
        for shift in (0, 2):  # different tap
            acc |= (a.value >> shift) & 1
        out.drive(acc)

    top.comb(logic, [a], name="p")


def sens_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    out = top.signal("out", width=4)

    def logic():
        out.drive(a.value)

    top.comb(logic, [a], name="p")
    del b


def sens_extra(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    out = top.signal("out", width=4)

    def logic():
        out.drive(a.value)

    top.comb(logic, [a, b], name="p")  # same body, wider sensitivity


def clocked_base(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    q = top.signal("q", width=4)

    def tick():
        q.drive(a.value)

    top.clocked(tick, reads=[a], writes=[q], name="p")
    del b


def clocked_read_set(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    b = top.signal("b", width=4)
    q = top.signal("q", width=4)

    def tick():
        q.drive(a.value)

    # Same body, wider declared read set.
    top.clocked(tick, reads=[a, b], writes=[q], name="p")


CASES = [
    ("ir/comment-only", ir_base, ir_comment, True),
    ("ir/docstring", ir_base, ir_docstring, True),
    ("ir/reformat", ir_base, ir_reformat, True),
    # The AST dump names the constant, so a rename is a body edit.
    ("ir/constant-rename", ir_base, ir_const_rename, False),
    ("ir/body-edit", ir_base, ir_body_edit, False),
    # The value is assigned outside the body: the environment residual
    # catches it (test_impact.py), the process fingerprint does not.
    ("ir/constant-value-edit", ir_base, ir_const_value_edit, True),
    ("ast/comment-only", ast_base, ast_comment, True),
    ("ast/docstring", ast_base, ast_docstring, True),
    ("ast/reformat", ast_base, ast_reformat, True),
    ("ast/body-edit", ast_base, ast_body_edit, False),
    ("comb/sensitivity-change", sens_base, sens_extra, False),
    ("clocked/read-set-change", clocked_base, clocked_read_set, False),
]


@pytest.mark.parametrize(
    "label,build_a,build_b,expect_same",
    CASES, ids=[case[0] for case in CASES])
def test_normalizer_table(label, build_a, build_b, expect_same):
    fp_a = _fingerprint(build_a)
    fp_b = _fingerprint(build_b)
    assert fp_a.digest is not None and fp_b.digest is not None
    if expect_same:
        assert fp_a.digest == fp_b.digest, label
        assert fp_a.mode == fp_b.mode
    else:
        assert fp_a.digest != fp_b.digest, label


@pytest.mark.parametrize(
    "label,build_a,build_b,expect_same",
    CASES, ids=[case[0] for case in CASES])
def test_normalizer_table_rows_fingerprint_the_same_from_a_store(
        label, build_a, build_b, expect_same, tmp_path):
    """Each row's two fingerprints come out the same from a cold and
    then a warm source-summary store as with no store."""
    for builder, cache in ((build_a, "a"), (build_b, "b")):
        plain = _fingerprint(builder)
        for hits in (0, 1):
            sources = _SourceSummaries(ResultCache(str(tmp_path / cache)))
            assert _fingerprint(builder, sources) == plain, label
            assert (sources.hits, sources.misses) == (hits, 1 - hits)


def test_ast_rung_used_for_partial_lift():
    assert _fingerprint(ast_base).mode == MODE_SEMANTIC_AST


def test_fingerprint_is_deterministic():
    assert _fingerprint(ir_base).digest == _fingerprint(ir_base).digest
    assert _fingerprint(ast_base).digest == _fingerprint(ast_base).digest


def test_opaque_process_has_no_digest():
    """A process whose source cannot be recovered (``functools.partial``
    has no code object for ``inspect.getsource``) lands on the opaque
    rung: no digest, a structured reason."""
    sim = Simulator()
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    out = top.signal("out", width=4)

    def logic(target, source):
        target.drive(source.value)

    top.comb(functools.partial(logic, out, a), [a], name="p")
    sim.elaborate()
    fp = process_fingerprint(sim.comb_processes[0])
    assert fp.mode == MODE_OPAQUE
    assert fp.digest is None
    assert fp.reason and "source unavailable" in fp.reason


class _StubInfo:
    """Duck-typed ProcessInfo for the raw-source rung: source text
    recovers but no code object locates its AST node."""

    name = "t.p"
    kind = "comb"
    sensitivity = ()
    declared_reads = None
    declared_writes = None
    declared_tie_offs = ()
    domain = None
    observed_reads = ()
    observed_writes = ()
    process = None

    def source(self):
        return "def p():\n    out.drive(1)\n"


def test_raw_source_rung_when_ast_unavailable():
    fp = process_fingerprint(_StubInfo())
    assert fp.mode == MODE_RAW_SOURCE
    assert fp.digest is not None
    assert fp.reason  # says why normalization degraded


def test_raw_source_rung_is_edit_sensitive():
    """On the raw rung *any* edit (even a comment) re-fingerprints —
    conservative by design."""
    stub_a = _StubInfo()
    stub_b = _StubInfo()
    stub_b.source = lambda: "def p():\n    out.drive(1)  # note\n"
    assert (process_fingerprint(stub_a).digest
            != process_fingerprint(stub_b).digest)


# -- the shared parse against the per-process reference ---------------------


class _StripDocstrings(ast.NodeTransformer):
    """Drop every bare-string expression statement (docstrings
    included): the reference for the summaries' in-walk stripping."""

    def visit_Expr(self, node: ast.Expr):  # noqa: N802 (ast API)
        if isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            return None
        return self.generic_visit(node)


class _ReferenceSources:
    """The per-process body the shared parse replaced: the callable's
    own source (``inspect.getsource``) parsed standalone, and a deep
    copy of its node with docstrings stripped."""

    def body(self, info):
        node = info.source_ast()
        assert node is not None, info.name
        cleaned = _StripDocstrings().visit(copy.deepcopy(node))
        return MODE_SEMANTIC_AST, ast.dump(cleaned), None


def test_shared_parse_matches_per_process_reference():
    """Every process of the small matrix fingerprints the same from one
    parse per file as from its own ``inspect.getsource`` parse."""
    shared, reference = _SourceSummaries(), _ReferenceSources()
    n_processes = 0
    for config in configuration_matrix(small=True):
        for view in ("rtl", "bca"):
            sim = VerificationEnv(config, view=view).sim
            for info in sim.comb_processes + sim.clocked_processes:
                got = process_fingerprint(info, shared)
                want = process_fingerprint(info, reference)
                assert (got.mode, got.digest) == (want.mode, want.digest), (
                    config.name, view, info.name)
                n_processes += 1
    assert n_processes > 100


TWO_LAMBDAS = '''\
from repro.kernel import Module


def build(sim):
    top = Module(sim, "t")
    a = top.signal("a", width=4)
    p = top.signal("p", width=4)
    q = top.signal("q", width=4)
    r = top.signal("r", width=4)
    bodies = (lambda: p.drive(a.value), lambda: q.drive(a.value))
    top.comb(bodies[0], [a], name="p")
    top.comb(bodies[1], [a], name="q")
    top.comb(lambda: r.drive(a.value), [a], name="r")
'''


def test_two_lambdas_on_one_line_fall_back_and_stay_in_the_residual(
        tmp_path):
    """Neither lambda of a shared line can be told apart by (line,
    name): both drop to raw source.  No lambda is elided from the
    environment residual, so an edit to any of them changes it."""
    path = tmp_path / "two_lambdas.py"
    path.write_text(TWO_LAMBDAS, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("two_lambdas", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sim = Simulator()
    module.build(sim)
    sim.elaborate()
    fps = {info.name: process_fingerprint(info)
           for info in sim.comb_processes}
    assert {name: fp.mode for name, fp in fps.items()} == {
        "t.p": MODE_RAW_SOURCE, "t.q": MODE_RAW_SOURCE,
        "t.r": MODE_SEMANTIC_AST}
    assert "2 AST nodes" in fps["t.p"].reason

    base = environment_digest(roots=(str(tmp_path),))
    assert base.n_elided == 0

    def residual_after(old, new):
        path.write_text(TWO_LAMBDAS.replace(old, new), encoding="utf-8")
        return environment_digest(roots=(str(tmp_path),)).digest

    assert residual_after("q.drive(a.value)", "q.drive(0)") != base.digest
    assert residual_after("r.drive(a.value)", "r.drive(0)") != base.digest


def test_two_lambdas_on_one_line_fingerprint_the_same_from_a_store(
        tmp_path):
    """The ambiguous span (two nodes) and the unique one survive the
    store: fingerprints and residual match a store-less build, cold
    and warm."""
    root = tmp_path / "root"
    root.mkdir()
    path = root / "two_lambdas_store.py"
    path.write_text(TWO_LAMBDAS, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("two_lambdas_store", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sim = Simulator()
    module.build(sim)
    sim.elaborate()

    def derive(sources):
        fps = [process_fingerprint(info, sources)
               for info in sim.comb_processes]
        return fps, environment_digest(roots=(str(root),), sources=sources)

    plain = derive(None)
    assert [fp.mode for fp in plain[0]] == [
        MODE_RAW_SOURCE, MODE_RAW_SOURCE, MODE_SEMANTIC_AST]
    for hits in (0, 1):
        sources = _SourceSummaries(ResultCache(str(tmp_path / "cache")))
        assert derive(sources) == plain
        assert (sources.hits, sources.misses) == (hits, 1 - hits)
