"""simflow: dims lattice, CFG shape, call-graph summaries, cache,
SARIF export, baselines, and a mutation test seeding a real unit bug.

Flow-rule *fixtures* (per-code positive/negative snippets) live in
test_lint.py next to the syntactic rule fixtures; this file tests the
machinery those rules are built on.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.cache import LintCache
from repro.lint.engine import lint_paths, lint_source
from repro.lint.flow.callgraph import (
    FunctionInfo,
    Project,
    annotation_dim,
    module_dotted_name,
)
from repro.lint.flow.cfg import build_cfg, is_generator
from repro.lint.flow.dims import (
    ADDR_LOGICAL,
    ADDR_PHYSICAL,
    DIMLESS,
    SIZE_BYTES,
    SIZE_PAGES,
    TIME_NS,
    TIME_US,
    UNKNOWN,
    conflict_kind,
    dim_of_name,
    join,
    scaled_time_unit,
)
from repro.lint.rules import ImportMap
from repro.lint.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes_of(result):
    return [d.code for d in result.diagnostics]


# ----------------------------------------------------------------------
# Dimension lattice
# ----------------------------------------------------------------------
class TestDims:
    def test_suffix_inference(self):
        # Table-driven on purpose: spelling these as direct comparisons
        # against suffix-named constants (TIME_US, SIZE_PAGES) makes the
        # linter read the constants themselves as quantities.
        cases = {
            "flush_coalesce_ns": TIME_NS,
            "mean_us": TIME_US,
            "capacity_bytes": SIZE_BYTES,
            "total_pages": SIZE_PAGES,
            "lpn": ADDR_LOGICAL,
            "prev_ppa": ADDR_PHYSICAL,
            "lpns": ADDR_LOGICAL,  # plural strips
        }
        for name, expected in cases.items():
            assert dim_of_name(name) == expected, name

    def test_thin_evidence_stays_unknown(self):
        # A lone `s` is too thin to call seconds; rates are neither unit.
        assert dim_of_name("s") == UNKNOWN
        assert dim_of_name("wall_s") == dim_of_name("elapsed_s") != UNKNOWN
        assert dim_of_name("events_per_s") == UNKNOWN
        assert dim_of_name("pages_per_block") == UNKNOWN
        assert dim_of_name("bus_mbps") == UNKNOWN

    def test_size_names_are_byte_quantities(self):
        assert dim_of_name("page_size") == SIZE_BYTES
        assert dim_of_name("nbytes") == SIZE_BYTES

    def test_scaled_time_unit_moves_along_ladder(self):
        assert scaled_time_unit("us", 1_000, multiply=True) == "ns"
        assert scaled_time_unit("ns", 1_000, multiply=False) == "us"
        assert scaled_time_unit("s", 1_000_000_000, multiply=True) == "ns"
        # Off-ladder factors do not convert.
        assert scaled_time_unit("ns", 7, multiply=False) is None
        assert scaled_time_unit("us", 1_000_000_000, multiply=False) is None

    def test_conflict_kind_families(self):
        assert conflict_kind(TIME_NS, TIME_US) == "time"
        assert conflict_kind(ADDR_LOGICAL, ADDR_PHYSICAL) == "addr"
        assert conflict_kind(TIME_NS, SIZE_BYTES) == "cross"
        assert conflict_kind(SIZE_BYTES, SIZE_PAGES) == "cross"

    def test_addr_vs_size_is_compatible(self):
        # Bounds checks (`lpn < logical_pages`) and pointer arithmetic
        # (`lpn + pages`) are idiomatic, not findings.
        assert conflict_kind(ADDR_LOGICAL, SIZE_PAGES) is None
        assert conflict_kind(SIZE_BYTES, ADDR_PHYSICAL) is None

    def test_unknown_and_dimless_never_conflict(self):
        assert conflict_kind(UNKNOWN, TIME_NS) is None
        assert conflict_kind(DIMLESS, TIME_NS) is None

    def test_join(self):
        assert join(TIME_NS, TIME_NS) == TIME_NS
        assert join(TIME_NS, DIMLESS) == TIME_NS
        assert join(TIME_NS, TIME_US) == UNKNOWN
        assert join(UNKNOWN, TIME_NS) == UNKNOWN


# ----------------------------------------------------------------------
# Control-flow graphs
# ----------------------------------------------------------------------
def fn_of(source: str):
    return ast.parse(source).body[0]


def cfg_node_at(cfg, lineno):
    for node in cfg.statement_nodes():
        if node.stmt.lineno == lineno:
            return node
    raise AssertionError(f"no CFG node at line {lineno}")


class TestCfg:
    def test_linear_body_chains_to_exit(self):
        cfg = build_cfg(fn_of("def f():\n    a = 1\n    b = 2\n"))
        assert cfg_node_at(cfg, 2).succs == {cfg_node_at(cfg, 3).index}
        assert cfg.exit.index in cfg_node_at(cfg, 3).succs

    def test_if_branches_rejoin(self):
        cfg = build_cfg(
            fn_of("def f(x):\n    if x:\n        a = 1\n    b = 2\n")
        )
        header = cfg_node_at(cfg, 2)
        join_node = cfg_node_at(cfg, 4)
        # Header reaches both the then-branch and (else-less) the join.
        assert cfg_node_at(cfg, 3).index in header.succs
        assert join_node.index in header.succs
        assert join_node.index in cfg_node_at(cfg, 3).succs

    def test_while_has_back_edge_and_break_exit(self):
        cfg = build_cfg(
            fn_of(
                "def f(c):\n"
                "    while c:\n"
                "        a = 1\n"
                "        if a:\n"
                "            break\n"
                "    b = 2\n"
            )
        )
        header = cfg_node_at(cfg, 2)
        after = cfg_node_at(cfg, 6)
        # The loop body re-enters the header (back edge via the if-tail).
        assert header.index in cfg_node_at(cfg, 4).succs
        # Break jumps straight past the loop; the header also exits.
        assert cfg_node_at(cfg, 5).succs == {after.index}
        assert after.index in header.succs

    def test_for_loop_back_edge(self):
        cfg = build_cfg(
            fn_of("def f(xs):\n    for x in xs:\n        a = x\n    b = 1\n")
        )
        header = cfg_node_at(cfg, 2)
        assert header.index in cfg_node_at(cfg, 3).succs
        assert cfg_node_at(cfg, 4).index in header.succs

    def test_try_body_may_jump_to_handler(self):
        cfg = build_cfg(
            fn_of(
                "def f():\n"
                "    try:\n"
                "        a = 1\n"
                "        b = 2\n"
                "    except ValueError:\n"
                "        c = 3\n"
                "    d = 4\n"
            )
        )
        handler = cfg_node_at(cfg, 5)
        # An exception can strike mid-body: both body statements reach
        # the handler header, and both handler and body reach the join.
        assert handler.index in cfg_node_at(cfg, 3).succs
        assert handler.index in cfg_node_at(cfg, 4).succs
        after = cfg_node_at(cfg, 7)
        assert after.index in cfg_node_at(cfg, 6).succs
        assert after.index in cfg_node_at(cfg, 4).succs

    def test_finally_on_every_path(self):
        cfg = build_cfg(
            fn_of(
                "def f():\n"
                "    try:\n"
                "        a = 1\n"
                "    except ValueError:\n"
                "        b = 2\n"
                "    finally:\n"
                "        c = 3\n"
            )
        )
        fin = cfg_node_at(cfg, 7)
        assert fin.index in cfg_node_at(cfg, 3).succs
        assert fin.index in cfg_node_at(cfg, 5).succs

    def test_with_body_is_linear(self):
        cfg = build_cfg(
            fn_of("def f(r):\n    with r:\n        a = 1\n    b = 2\n")
        )
        assert cfg_node_at(cfg, 3).index in cfg_node_at(cfg, 2).succs
        assert cfg_node_at(cfg, 4).index in cfg_node_at(cfg, 3).succs

    def test_return_goes_to_exit_only(self):
        cfg = build_cfg(
            fn_of("def f(x):\n    if x:\n        return 1\n    a = 2\n")
        )
        assert cfg_node_at(cfg, 3).succs == {cfg.exit.index}

    def test_yield_marks_node(self):
        cfg = build_cfg(
            fn_of("def f(sim):\n    a = 1\n    yield sim.ev\n    b = 2\n")
        )
        assert not cfg_node_at(cfg, 2).has_yield
        assert cfg_node_at(cfg, 3).has_yield
        assert not cfg_node_at(cfg, 4).has_yield

    def test_is_generator_ignores_nested_scopes(self):
        assert is_generator(fn_of("def f():\n    yield 1\n"))
        assert is_generator(fn_of("def f(x):\n    x = yield\n"))
        assert not is_generator(
            fn_of("def f():\n    def g():\n        yield 1\n    return g\n")
        )
        assert not is_generator(
            fn_of("def f():\n    return (lambda: (yield))\n")
        )


# ----------------------------------------------------------------------
# Call graph and summaries
# ----------------------------------------------------------------------
class FakeModule:
    def __init__(self, display, source, is_sim_layer=True):
        self.display = display
        self.tree = ast.parse(source)
        self.is_sim_layer = is_sim_layer


class TestCallgraph:
    def test_module_dotted_name(self):
        assert module_dotted_name("src/repro/ftl/core.py") == "repro.ftl.core"
        assert module_dotted_name("src/repro/ftl/__init__.py") == "repro.ftl"
        assert module_dotted_name("tests/test_x.py") == "tests.test_x"

    def test_annotation_dim_shapes(self):
        imports = ImportMap(ast.parse("from repro.units import Ns"))

        def dim(expr_src):
            return annotation_dim(ast.parse(expr_src, mode="eval").body, imports)

        assert dim("Ns") == TIME_NS
        assert dim("'Ns'") == TIME_NS
        assert dim("Optional[Ns]") == TIME_NS
        assert dim("Ns | None") == TIME_NS
        assert dim("int") == UNKNOWN

    def test_param_dims_annotation_beats_suffix(self):
        module = FakeModule(
            "src/x/ssd/m.py",
            "from repro.units import Ns\n"
            "def f(delay_us: Ns, nbytes, plain):\n    return delay_us\n",
        )
        project = Project([module])
        info = project.functions["src/x/ssd/m.py"]["f"]
        assert info.param_dims["delay_us"] == TIME_NS  # annotation wins
        assert info.param_dims["nbytes"] == SIZE_BYTES
        assert info.param_dims["plain"] == UNKNOWN

    def test_positional_param_skips_self_when_bound(self):
        module = FakeModule(
            "src/x/ssd/m.py",
            "class C:\n    def m(self, delay_ns, nbytes):\n        pass\n",
        )
        project = Project([module])
        info = project.classes["src/x/ssd/m.py"]["C"].methods["m"]
        assert info.positional_param(0, bound=True) == "delay_ns"
        assert info.positional_param(0, bound=False) == "self"

    def test_return_dim_from_name_suffix(self):
        module = FakeModule(
            "src/x/ssd/m.py", "def service_ns(x):\n    return x\n"
        )
        project = Project([module])
        assert project.functions["src/x/ssd/m.py"]["service_ns"].return_dim \
            == TIME_NS


# ----------------------------------------------------------------------
# Interprocedural findings across real module boundaries
# ----------------------------------------------------------------------
def write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestInterprocedural:
    def test_cross_module_argument_mismatch(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/pkg/ssd/timing.py": (
                    "def service_time_us(nbytes, bus_mbps):\n"
                    "    return nbytes / bus_mbps\n"
                ),
                "src/pkg/ssd/engine.py": (
                    "from pkg.ssd.timing import service_time_us\n"
                    "def step(now_ns, nbytes, bus_mbps):\n"
                    "    return now_ns + service_time_us(nbytes, bus_mbps)\n"
                ),
            },
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert codes_of(result) == ["SIM010"]
        assert result.diagnostics[0].path == "src/pkg/ssd/engine.py"
        assert "time:ns + time:us" in result.diagnostics[0].message

    def test_cross_module_clean_when_converted(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/pkg/ssd/timing.py": (
                    "def service_time_us(nbytes, bus_mbps):\n"
                    "    return nbytes / bus_mbps\n"
                ),
                "src/pkg/ssd/engine.py": (
                    "from repro.units import us_to_ns\n"
                    "from pkg.ssd.timing import service_time_us\n"
                    "def step(now_ns, nbytes, bus_mbps):\n"
                    "    return now_ns + us_to_ns("
                    "service_time_us(nbytes, bus_mbps))\n"
                ),
            },
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert codes_of(result) == []

    def test_return_summary_fixed_point(self, tmp_path):
        # `total` has no suffix of its own; its dim comes from the
        # callee's, one hop through the fixed point.
        write_tree(
            tmp_path,
            {
                "src/pkg/ssd/m.py": (
                    "def base_us():\n    return 5\n"
                    "def total(extra):\n    return base_us() + extra\n"
                    "def f(now_ns, extra):\n"
                    "    return now_ns + total(extra)\n"
                ),
            },
        )
        result = lint_paths([tmp_path / "src"], root=tmp_path)
        assert codes_of(result) == ["SIM010"]


# ----------------------------------------------------------------------
# Content-hash cache
# ----------------------------------------------------------------------
class TestCache:
    FILES = {
        "src/pkg/ssd/a.py": "def f(t_ns):\n    return t_ns + 1\n",
        "src/pkg/ssd/b.py": "def g(nbytes):\n    return nbytes * 2\n",
    }

    def test_second_run_is_fully_hot(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cache_dir = tmp_path / "cache"
        cold = LintCache(cache_dir)
        first = lint_paths([tmp_path / "src"], root=tmp_path, cache=cold)
        assert cold.file_hits == 0 and not cold.flow_hot

        hot = LintCache(cache_dir)
        second = lint_paths([tmp_path / "src"], root=tmp_path, cache=hot)
        assert hot.file_hits == 2 and hot.file_misses == 0
        assert hot.flow_hot
        assert [d.to_dict() for d in first.diagnostics] == [
            d.to_dict() for d in second.diagnostics
        ]

    def test_edit_invalidates_changed_file_and_flow(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cache_dir = tmp_path / "cache"
        lint_paths(
            [tmp_path / "src"], root=tmp_path, cache=LintCache(cache_dir)
        )
        (tmp_path / "src/pkg/ssd/a.py").write_text(
            "def f(t_ns, d_us):\n    return t_ns + d_us\n"
        )
        cache = LintCache(cache_dir)
        result = lint_paths(
            [tmp_path / "src"], root=tmp_path, cache=cache
        )
        # The untouched file hits; the edited file and the flow pass
        # re-run — and the re-run sees the newly introduced bug.
        assert cache.file_hits == 1 and cache.file_misses == 1
        assert not cache.flow_hot
        assert codes_of(result) == ["SIM010"]

    def test_cached_diagnostics_round_trip(self, tmp_path):
        files = {
            "src/pkg/ssd/bad.py": "def f(a_ns, b_us):\n    return a_ns + b_us\n"
        }
        write_tree(tmp_path, files)
        cache_dir = tmp_path / "cache"
        first = lint_paths(
            [tmp_path / "src"], root=tmp_path, cache=LintCache(cache_dir)
        )
        second = lint_paths(
            [tmp_path / "src"], root=tmp_path, cache=LintCache(cache_dir)
        )
        assert codes_of(first) == codes_of(second) == ["SIM010"]
        assert first.diagnostics[0] == second.diagnostics[0]

    def test_select_runs_bypass_the_cache(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cache = LintCache(tmp_path / "cache")
        lint_paths(
            [tmp_path / "src"],
            root=tmp_path,
            select=["SIM001"],
            cache=cache,
        )
        # A partial rule set must not write (or read) full-run entries.
        assert cache.file_hits == 0 and cache.file_misses == 0
        assert not (tmp_path / "cache" / "lintcache.json").exists()

    def test_corrupt_cache_file_is_a_cold_start(self, tmp_path):
        write_tree(tmp_path, self.FILES)
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "lintcache.json").write_text("{not json")
        cache = LintCache(cache_dir)
        result = lint_paths([tmp_path / "src"], root=tmp_path, cache=cache)
        assert codes_of(result) == []
        assert cache.file_hits == 0


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------
class TestSarif:
    def test_document_shape(self):
        result = lint_source(
            "def f(a_ns, b_us):\n    return a_ns + b_us\n",
            "src/repro/ssd/fixture.py",
        )
        doc = to_sarif(result)
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SIM000", "SIM010", "SIM014"} <= rule_ids

        (entry,) = run["results"]
        assert entry["ruleId"] == "SIM010"
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/ssd/fixture.py"
        assert location["region"] == {"startLine": 2, "startColumn": 12}
        # ruleIndex must point back at the right rule row.
        rules = run["tool"]["driver"]["rules"]
        assert rules[entry["ruleIndex"]]["id"] == "SIM010"

    def test_clean_result_has_no_results(self):
        doc = to_sarif(lint_source("x = 1\n"))
        assert doc["runs"][0]["results"] == []
        assert json.dumps(doc)  # serializable


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
class TestBaseline:
    def findings(self):
        return lint_source(
            "def f(a_ns, b_us):\n"
            "    x = a_ns + b_us\n"
            "    y = a_ns + b_us\n"
            "    return x + y\n",
            "src/repro/ssd/fixture.py",
        ).diagnostics

    def test_round_trip_absorbs_recorded_findings(self, tmp_path):
        diags = self.findings()
        assert len(diags) == 2
        path = tmp_path / "baseline.json"
        assert write_baseline(path, diags) == 2
        kept, absorbed = apply_baseline(diags, load_baseline(path))
        assert kept == [] and absorbed == 2

    def test_counts_are_slots_not_wildcards(self, tmp_path):
        diags = self.findings()  # two identical-fingerprint findings
        path = tmp_path / "baseline.json"
        write_baseline(path, diags[:1])  # record only ONE slot
        kept, absorbed = apply_baseline(diags, load_baseline(path))
        assert absorbed == 1 and len(kept) == 1

    def test_new_findings_still_fail(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [])
        kept, absorbed = apply_baseline(self.findings(), load_baseline(path))
        assert len(kept) == 2 and absorbed == 0

    def test_malformed_baseline_is_loud(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="unsupported format"):
            load_baseline(path)
        with pytest.raises(ValueError, match="cannot read"):
            load_baseline(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Mutation test: seed a real us/ns bug, assert simflow catches it.
# ----------------------------------------------------------------------
class TestMutation:
    """The tree lints clean, so prove the rules WOULD catch a real slip:
    mutate a production call site to pass microseconds into the ns-typed
    simulator clock and require SIM010 to fire."""

    ENGINE = REPO_ROOT / "src/repro/sim/engine.py"
    CALLER = REPO_ROOT / "src/repro/kstack/completion.py"

    def lint_pair(self, tmp_path, caller_source):
        write_tree(
            tmp_path,
            {
                "src/repro/sim/engine.py": self.ENGINE.read_text(
                    encoding="utf-8"
                ),
                "src/repro/kstack/completion.py": caller_source,
            },
        )
        return lint_paths([tmp_path / "src"], root=tmp_path)

    def test_unmutated_pair_is_clean(self, tmp_path):
        result = self.lint_pair(
            tmp_path, self.CALLER.read_text(encoding="utf-8")
        )
        assert codes_of(result) == []

    def test_us_for_ns_mutation_is_caught(self, tmp_path):
        original = self.CALLER.read_text(encoding="utf-8")
        # The MSI flight opens the ISR segment's sleep delay.
        target = "costs.irq_delivery_ns\n            + charge("
        assert target in original, "mutation anchor moved; update the test"
        mutated = original.replace(
            target, "costs.irq_delivery_us\n            + charge(", 1
        )
        result = self.lint_pair(tmp_path, mutated)
        assert "SIM010" in codes_of(result)
        (diag,) = [d for d in result.diagnostics if d.code == "SIM010"]
        assert diag.path == "src/repro/kstack/completion.py"
        assert "argument 'delay' of Simulator.sleep()" in diag.message
