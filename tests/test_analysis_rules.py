"""reprolint self-test corpus: every rule fires on seeded violations.

Each case lints an in-memory snippet through :func:`lint_source` under a
synthetic path chosen to land inside (or outside) the rule's scope, and
asserts the exact ``rule_id`` and line number — then shows the matching
``allow[...]`` pragma suppressing it.  The final test runs the real linter
over the real tree: the production source must stay clean.
"""

import textwrap

import pytest

from repro.analysis import lint_paths, lint_source, lint_sources
from repro.analysis.contracts import GOLDEN_SITES
from repro.analysis.fingerprint import (
    find_site_region,
    golden_site_key,
    region_fingerprint,
)
from repro.analysis.reprolint import FRAMEWORK_RULE_ID, ParsedFile

GOLDEN_MODULE_PATH = "src/repro/reference/scalar.py"
GOLDEN_FUNC_PATH = "src/repro/md/neighbor.py"
GOLDEN_CLASS_PATH = "src/repro/parallel/executor.py"
HOT_PATH = "src/repro/md/forcefields/fake.py"
BACKEND_PATH = "src/repro/parallel/fake_engine.py"
PARALLEL_PATH = "src/repro/parallel/fake_reduce.py"
SERVING_PATH = "src/repro/serving/fake_dispatch.py"
SERVING_GOLDEN_PATH = "src/repro/serving/serial.py"
PRODUCTION_PATH = "src/repro/md/fake_field.py"


def lint(source: str, path: str):
    return lint_source(textwrap.dedent(source), path)


def fired(violations, rule_id: str):
    return [v for v in violations if v.rule_id == rule_id]


# ---------------------------------------------------------------------------
# The retired RL002: a marked hot path's own body is RL006 at depth zero
# ---------------------------------------------------------------------------

# Every seed the RL002 corpus carried, with the lines RL002 flagged in it
# (``[]`` for the clean twins): RL006 flags exactly those lines.
_RETIRED_RL002_SEEDS = {
    "alloc-scatter-and-astype": (
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(pairs, values, n):
            out = np.zeros(n)
            np.add.at(out, pairs, values)
            return out.reshape(-1, 1).astype(np.float64)
        """,
        [5, 6, 7],
    ),
    "marker-on-def-line": (
        """\
        import numpy as np

        def compute(n):  # reprolint: hot-path
            return np.empty(n)
        """,
        [4],
    ),
    "unmarked-function": (
        """\
        import numpy as np

        def setup(n):
            return np.zeros(n)
        """,
        [],
    ),
    "copy-false-astype-is-a-view-request": (
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(x):
            return x.astype(np.float64, copy=False)
        """,
        [],
    ),
    "pragma-with-reason": (
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return np.zeros(n)  # reprolint: allow[alloc] reference branch allocates by design
        """,
        [],
    ),
}


@pytest.mark.parametrize("seed", sorted(_RETIRED_RL002_SEEDS))
def test_rl006_flags_every_retired_rl002_finding_at_the_same_line(seed):
    source, rl002_lines = _RETIRED_RL002_SEEDS[seed]
    violations = lint(source, HOT_PATH)
    assert [(v.rule_id, v.path, v.line) for v in violations] == [("RL006", HOT_PATH, line) for line in rl002_lines]


def test_rl006_names_the_marked_function_and_the_idiom():
    source, _ = _RETIRED_RL002_SEEDS["alloc-scatter-and-astype"]
    messages = [v.message for v in lint(source, HOT_PATH)]
    assert all(message.startswith("hot path compute ") for message in messages)
    assert "np.zeros" in messages[0]
    assert "bincount" in messages[1]
    assert ".astype" in messages[2]


def test_rl006_checks_a_nested_def_of_a_marked_body():
    violations = fired(
        lint(
            """\
            import numpy as np

            # reprolint: hot-path
            def compute(n):
                def fill():
                    return np.zeros(n)
                return fill()
            """,
            HOT_PATH,
        ),
        "RL006",
    )
    assert [v.line for v in violations] == [6]


# ---------------------------------------------------------------------------
# RL003 — backend purity
# ---------------------------------------------------------------------------

_IMPURE_BACKEND = """\
    class FastBackend(EngineBackend):
        def sprint(self, n_steps):
            for _ in range(n_steps):
                self.integrate_first_half()

        def report(self):
            return SimulationReport(n_steps=1)

        def snapshot(self):
            self.trajectory.append(self.positions.copy())

        def nudge(self):
            self.thermostat.apply(self, 0.1)

        def apply_thermostat(self):
            self.thermostat.apply(self, 0.1)
    """


def test_rl003_backend_with_run_loop_features_fires_per_feature():
    violations = fired(lint(_IMPURE_BACKEND, BACKEND_PATH), "RL003")
    assert [v.line for v in violations] == [3, 7, 10, 13]
    # the protocol hook itself (apply_thermostat, line 16) stays legal


def test_rl003_plain_class_is_not_a_backend():
    violations = lint(
        """\
        class Helper:
            def sprint(self, n_steps):
                for _ in range(n_steps):
                    self.integrate_first_half()
        """,
        BACKEND_PATH,
    )
    assert violations == []


def test_rl003_stepping_module_is_exempt():
    assert lint(_IMPURE_BACKEND, "src/repro/md/stepping.py") == []


# ---------------------------------------------------------------------------
# RL004 — fixed-order reductions
# ---------------------------------------------------------------------------


def test_rl004_set_iteration_fires_in_parallel_package():
    violations = fired(
        lint(
            """\
            def gather(results_by_rank):
                total = 0.0
                for rank in set(results_by_rank):
                    total += results_by_rank[rank]
                return total
            """,
            PARALLEL_PATH,
        ),
        "RL004",
    )
    assert [v.line for v in violations] == [3]


def test_rl004_tracks_names_assigned_a_set():
    violations = fired(
        lint(
            """\
            def gather(ranks):
                pending = set(ranks)
                return [r for r in pending]
            """,
            PARALLEL_PATH,
        ),
        "RL004",
    )
    assert [v.line for v in violations] == [3]


def test_rl004_sorted_iteration_is_fixed_order():
    violations = lint(
        """\
        def gather(ranks):
            return [r for r in sorted(set(ranks))]
        """,
        PARALLEL_PATH,
    )
    assert violations == []


def test_rl004_set_iteration_fires_in_serving_package():
    violations = fired(
        lint(
            """\
            def fulfill(futures_by_request):
                for request in set(futures_by_request):
                    futures_by_request[request].set_result(None)
            """,
            SERVING_PATH,
        ),
        "RL004",
    )
    assert [v.line for v in violations] == [2]


def test_rl004_does_not_apply_outside_parallel():
    violations = lint(
        """\
        def gather(ranks):
            return [r for r in set(ranks)]
        """,
        PRODUCTION_PATH,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL005 — dtype discipline
# ---------------------------------------------------------------------------


def test_rl005_low_precision_literal_fires_in_production():
    violations = fired(
        lint(
            """\
            import numpy as np

            def pack(x):
                return x.astype(np.float32)
            """,
            PRODUCTION_PATH,
        ),
        "RL005",
    )
    assert [v.line for v in violations] == [4]


def test_rl005_sanctioned_modules_and_tests_are_exempt():
    source = """\
        import numpy as np

        DTYPE = np.float16
        """
    assert lint(source, "src/repro/deepmd/gemm.py") == []
    assert lint(source, "tests/test_precision_probe.py") == []


def test_rl005_pragma_with_reason_suppresses():
    violations = lint(
        """\
        import numpy as np

        def pack(x):
            return x.astype(np.float32)  # reprolint: allow[dtype] guarded prefilter cast
        """,
        PRODUCTION_PATH,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL006 — transitive hot-path allocation (call-graph propagation)
# ---------------------------------------------------------------------------


def test_rl006_helper_reached_through_the_call_graph_fires():
    violations = fired(
        lint(
            """\
            import numpy as np

            # reprolint: hot-path
            def compute(n):
                return helper(n)

            def helper(n):
                return np.zeros(n)
            """,
            HOT_PATH,
        ),
        "RL006",
    )
    assert [v.line for v in violations] == [8]
    assert "helper (reachable from hot path compute)" in violations[0].message
    assert "np.zeros" in violations[0].message


def test_rl006_propagates_through_call_chains():
    violations = fired(
        lint(
            """\
            import numpy as np

            # reprolint: hot-path
            def compute(pairs, n):
                return outer(pairs, n)

            def outer(pairs, n):
                return inner(pairs, n)

            def inner(pairs, n):
                out = np.empty(n)
                np.add.at(out, pairs, 1.0)
                return out
            """,
            HOT_PATH,
        ),
        "RL006",
    )
    assert [v.line for v in violations] == [11, 12]
    assert all("reachable from hot path compute" in v.message for v in violations)


def test_rl006_resolves_helpers_imported_from_another_module():
    # the cross-file case: the hot root and the allocating helper live in
    # different modules, connected only by a relative import
    violations = fired(
        lint_sources(
            {
                "src/repro/md/fake_hot.py": textwrap.dedent(
                    """\
                    from .fake_util import helper

                    # reprolint: hot-path
                    def compute(n):
                        return helper(n)
                    """
                ),
                "src/repro/md/fake_util.py": textwrap.dedent(
                    """\
                    import numpy as np

                    def helper(n):
                        return np.zeros(n)
                    """
                ),
            }
        ),
        "RL006",
    )
    (violation,) = violations
    assert violation.path == "src/repro/md/fake_util.py"
    assert violation.line == 4


def test_rl006_reaches_an_allocating_method_through_self():
    violations = fired(
        lint(
            """\
            import numpy as np

            class Field:
                # reprolint: hot-path
                def compute(self, n):
                    return self.scratch(n)

                def scratch(self, n):
                    return np.zeros(n)
            """,
            HOT_PATH,
        ),
        "RL006",
    )
    (violation,) = violations
    assert violation.line == 9
    assert "Field.scratch (reachable from hot path Field.compute)" in violation.message


def test_rl006_reaches_an_allocating_constructor():
    violations = fired(
        lint(
            """\
            import numpy as np

            class Buffer:
                def __init__(self, n):
                    self.data = np.zeros(n)

            # reprolint: hot-path
            def compute(n):
                return Buffer(n)
            """,
            HOT_PATH,
        ),
        "RL006",
    )
    (violation,) = violations
    assert violation.line == 5
    assert "Buffer.__init__ (reachable from hot path compute)" in violation.message


def test_rl006_cold_path_marker_is_a_boundary():
    violations = lint(
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return build(n)

        # reprolint: cold-path table builds once per rebuild and is cached
        def build(n):
            return np.zeros(n)
        """,
        HOT_PATH,
    )
    assert violations == []


def test_rl006_cold_path_boundary_shields_transitive_callees_too():
    violations = lint(
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return build(n)

        # reprolint: cold-path cache rebuild cadence, not per step
        def build(n):
            return fill(n)

        def fill(n):
            return np.zeros(n)
        """,
        HOT_PATH,
    )
    assert violations == []


def test_rl006_allow_alloc_pragma_suppresses():
    violations = lint(
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return helper(n)

        def helper(n):
            return np.zeros(n)  # reprolint: allow[alloc] reference branch allocates by design
        """,
        HOT_PATH,
    )
    assert violations == []


def test_rl006_does_not_fire_outside_the_production_tree():
    violations = lint(
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return helper(n)

        def helper(n):
            return np.zeros(n)
        """,
        "tests/fake_probe.py",
    )
    assert violations == []


# ---------------------------------------------------------------------------
# RL007 — golden-drift fingerprints
# ---------------------------------------------------------------------------

_GOLDEN_FUNC_SOURCE = textwrap.dedent(
    '''\
    import numpy as np

    def _brute_force_pairs(positions, box, cutoff):
        """All pairs within cutoff, O(N^2)."""
        pairs = []
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                pairs.append((i, j))
        return pairs
    '''
)


def _fingerprint_for(source: str, rel_path: str) -> tuple[str, str]:
    """``(baseline key, hash)`` of the golden region inside ``source``."""
    parsed = ParsedFile.parse(source, rel_path)
    (site,) = [s for s in GOLDEN_SITES if rel_path.endswith(s.path_suffix)]
    region = find_site_region(site, parsed)
    assert region is not None
    return golden_site_key(site), region_fingerprint(region)


# The retired RL001 kept a list of fast-path idioms a golden site must not
# grow.  Every seed its corpus carried, next to its clean twin: linted against
# a baseline fingerprinted from the twin, each one is RL007 drift.
_RETIRED_RL001_SEEDS = {
    "einsum-in-frozen-module": (
        GOLDEN_MODULE_PATH,
        """\
        import numpy as np

        def reference(a, b):
            return (a * b).sum(axis=1)
        """,
        """\
        import numpy as np

        def reference(a, b):
            return np.einsum("ij,ij->i", a, b)
        """,
    ),
    "bincount-in-declared-function": (
        GOLDEN_FUNC_PATH,
        """\
        import numpy as np

        def _brute_force_pairs(positions):
            return np.sort(positions)

        def binned_build(positions):
            return np.bincount(positions)
        """,
        """\
        import numpy as np

        def _brute_force_pairs(positions):
            return np.bincount(positions)

        def binned_build(positions):
            return np.bincount(positions)
        """,
    ),
    "workspace-parameter-and-kwarg": (
        GOLDEN_CLASS_PATH,
        """\
        class SequentialRankExecutor:
            def run(self, engine):
                return engine.compute()
        """,
        """\
        class SequentialRankExecutor:
            def run(self, engine, workspace=None):
                return engine.compute(workspace=workspace)
        """,
    ),
    "fast-path-import": (
        GOLDEN_MODULE_PATH,
        """\
        import numpy as np
        """,
        """\
        import numpy as np
        from ..md.workspace import scatter_add_vectors
        """,
    ),
    "bincount-in-serving-serial": (
        SERVING_GOLDEN_PATH,
        """\
        import numpy as np

        def evaluate_serial(model, systems):
            return [model.evaluate(*system) for system in systems]
        """,
        """\
        import numpy as np

        def evaluate_serial(model, systems):
            return np.bincount(systems)
        """,
    ),
}


@pytest.mark.parametrize("seed", sorted(_RETIRED_RL001_SEEDS))
def test_rl007_fires_on_every_retired_rl001_seed(seed):
    path, clean, seeded = _RETIRED_RL001_SEEDS[seed]
    clean, seeded = textwrap.dedent(clean), textwrap.dedent(seeded)
    key, fingerprint = _fingerprint_for(clean, path)
    baseline = {key: fingerprint}
    assert lint_sources({path: clean}, golden_baseline=baseline) == []
    (violation,) = fired(lint_sources({path: seeded}, golden_baseline=baseline), "RL007")
    assert "drifted" in violation.message


def test_rl007_scoped_to_the_declared_function_only():
    path, clean, _ = _RETIRED_RL001_SEEDS["bincount-in-declared-function"]
    clean = textwrap.dedent(clean)
    key, fingerprint = _fingerprint_for(clean, path)
    neighbour_edited = clean.replace("np.bincount(positions)", "np.bincount(positions, minlength=4)")
    assert neighbour_edited != clean
    assert lint_sources({path: neighbour_edited}, golden_baseline={key: fingerprint}) == []


def test_rl007_matching_fingerprint_is_clean():
    key, fingerprint = _fingerprint_for(_GOLDEN_FUNC_SOURCE, GOLDEN_FUNC_PATH)
    violations = lint_sources(
        {GOLDEN_FUNC_PATH: _GOLDEN_FUNC_SOURCE}, golden_baseline={key: fingerprint}
    )
    assert violations == []


def test_rl007_semantic_edit_fires_until_refreshed():
    key, fingerprint = _fingerprint_for(_GOLDEN_FUNC_SOURCE, GOLDEN_FUNC_PATH)
    edited = _GOLDEN_FUNC_SOURCE.replace("range(i + 1,", "range(i + 2,")
    violations = fired(
        lint_sources({GOLDEN_FUNC_PATH: edited}, golden_baseline={key: fingerprint}),
        "RL007",
    )
    (violation,) = violations
    assert violation.line == 3  # the region's def line
    assert "drifted" in violation.message
    assert "--update-golden" in violation.message
    # refreshing the baseline (what --update-golden records) clears it
    _, new_fingerprint = _fingerprint_for(edited, GOLDEN_FUNC_PATH)
    assert (
        lint_sources({GOLDEN_FUNC_PATH: edited}, golden_baseline={key: new_fingerprint})
        == []
    )


def test_rl007_comment_and_docstring_edits_never_fire():
    key, fingerprint = _fingerprint_for(_GOLDEN_FUNC_SOURCE, GOLDEN_FUNC_PATH)
    reworded = _GOLDEN_FUNC_SOURCE.replace(
        '"""All pairs within cutoff, O(N^2)."""',
        '"""Reworded docstring."""  # and a new comment',
    )
    assert (
        lint_sources({GOLDEN_FUNC_PATH: reworded}, golden_baseline={key: fingerprint})
        == []
    )


def test_rl007_missing_recorded_fingerprint_fires():
    violations = fired(
        lint_sources({GOLDEN_FUNC_PATH: _GOLDEN_FUNC_SOURCE}, golden_baseline={}),
        "RL007",
    )
    (violation,) = violations
    assert "no recorded fingerprint" in violation.message


def test_rl007_region_gone_fires_on_line_one():
    key, fingerprint = _fingerprint_for(_GOLDEN_FUNC_SOURCE, GOLDEN_FUNC_PATH)
    gutted = "import numpy as np\n"
    violations = fired(
        lint_sources({GOLDEN_FUNC_PATH: gutted}, golden_baseline={key: fingerprint}),
        "RL007",
    )
    (violation,) = violations
    assert violation.line == 1
    assert "is gone" in violation.message


def test_rl007_disabled_without_a_baseline():
    edited = _GOLDEN_FUNC_SOURCE.replace("range(i + 1,", "range(i + 2,")
    assert fired(lint_source(edited, GOLDEN_FUNC_PATH), "RL007") == []


@pytest.mark.parametrize(
    "content", [None, "{not json", '{"fingerprints": []}', '["fingerprints"]']
)
def test_lint_paths_reports_a_missing_or_unreadable_golden_baseline(
    tmp_path, monkeypatch, content
):
    # regression: an absent or corrupt committed baseline used to switch
    # RL007 off silently, so the golden freeze failed open
    from repro.analysis import fingerprint

    baseline = tmp_path / "golden_baseline.json"
    if content is not None:
        baseline.write_text(content, encoding="utf-8")
    monkeypatch.setattr(fingerprint, "DEFAULT_BASELINE_PATH", baseline)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    (violation,) = lint_paths([clean])
    assert (violation.path, violation.line, violation.rule_id) == (
        str(baseline),
        1,
        FRAMEWORK_RULE_ID,
    )
    assert "golden baseline is missing or unreadable" in violation.message


def test_lint_paths_checks_rl007_against_a_readable_golden_baseline(
    tmp_path, monkeypatch
):
    # the positive control of the fail-open fix: a readable baseline is
    # loaded and RL007 checks against it, so an unrecorded site fires
    from repro.analysis import fingerprint

    baseline = tmp_path / "golden_baseline.json"
    baseline.write_text('{"fingerprints": {}}', encoding="utf-8")
    monkeypatch.setattr(fingerprint, "DEFAULT_BASELINE_PATH", baseline)
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert lint_paths([clean]) == []
    golden = tmp_path / GOLDEN_FUNC_PATH
    golden.parent.mkdir(parents=True)
    golden.write_text(_GOLDEN_FUNC_SOURCE, encoding="utf-8")
    (violation,) = fired(lint_paths([golden]), "RL007")
    assert violation.path == golden.as_posix()
    assert "no recorded fingerprint" in violation.message


# ---------------------------------------------------------------------------
# RL000 — pragma hygiene (the framework polices its own escape hatch)
# ---------------------------------------------------------------------------


def test_rl000_reasonless_allow_is_a_violation():
    violations = lint(
        """\
        import numpy as np

        # reprolint: hot-path
        def compute(n):
            return np.zeros(n)  # reprolint: allow[alloc]
        """,
        HOT_PATH,
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "no reason" in violations[0].message


@pytest.mark.parametrize("slug", ["golden", "worker"])
def test_rl000_leftover_allow_golden_is_an_unknown_slug(slug):
    """RL001 (``golden``) and RL008 (``worker``) are retired: a pragma left
    behind suppresses nothing and is itself reported."""
    violations = lint(
        f"""\
        import numpy as np

        def reference(a, b):
            return np.einsum("ij,ij->i", a, b)  # reprolint: allow[{slug}] frozen formulation
        """,
        GOLDEN_MODULE_PATH,
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert f"allow[{slug}] names no known rule slug" in violations[0].message


def test_rl000_unknown_slug_is_a_violation():
    violations = lint(
        "x = 1  # reprolint: allow[speed] because fast\n", PRODUCTION_PATH
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "no known rule slug" in violations[0].message


def test_rl000_stale_allow_is_a_violation():
    violations = lint(
        "x = 1  # reprolint: allow[alloc] nothing to suppress here\n", PRODUCTION_PATH
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "stale" in violations[0].message


def test_rl000_unrecognised_directive_is_a_violation():
    violations = lint("x = 1  # reprolint: ignore-all\n", PRODUCTION_PATH)
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]


def test_rl000_orphan_hot_path_marker_is_a_violation():
    violations = lint(
        """\
        # reprolint: hot-path
        x = 1
        """,
        PRODUCTION_PATH,
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "not attached" in violations[0].message


def test_rl000_orphan_cold_path_marker_is_a_violation():
    violations = lint(
        """\
        # reprolint: cold-path cache rebuild only
        x = 1
        """,
        PRODUCTION_PATH,
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "not attached" in violations[0].message


def test_rl000_reasonless_cold_path_marker_is_a_violation():
    violations = lint(
        """\
        import numpy as np

        # reprolint: cold-path
        def build(n):
            return np.zeros(n)
        """,
        PRODUCTION_PATH,
    )
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "no reason" in violations[0].message


def test_rl000_syntax_error_is_reported_not_raised():
    violations = lint_source("def broken(:\n", PRODUCTION_PATH)
    assert [v.rule_id for v in violations] == [FRAMEWORK_RULE_ID]
    assert "syntax error" in violations[0].message


def test_pragma_text_inside_string_literals_is_inert():
    violations = lint(
        '''\
        CORPUS = """
        np.zeros(n)  # reprolint: allow[alloc]
        # reprolint: hot-path
        """
        ''',
        PRODUCTION_PATH,
    )
    assert violations == []


# ---------------------------------------------------------------------------
# File discovery and the CLI
# ---------------------------------------------------------------------------


def test_iter_python_files_dedupes_and_skips_cache_dirs(tmp_path):
    from repro.analysis.reprolint import iter_python_files

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("x = 1\n")
    (tmp_path / "pkg" / ".hidden").mkdir()
    (tmp_path / "pkg" / ".hidden" / "b.py").write_text("x = 1\n")
    # overlapping roots plus the file named directly: still one entry
    files = iter_python_files(
        [tmp_path, tmp_path / "pkg", tmp_path / "pkg" / "a.py"]
    )
    assert [f.name for f in files] == ["a.py"]


def test_cli_prints_findings_and_counts_and_sets_the_exit_code(tmp_path, capsys):
    from repro.analysis.__main__ import main

    bad = tmp_path / "src" / "repro" / "md" / "probe.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\n\n# reprolint: hot-path\ndef f(n):\n    return np.zeros(n)\n")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{bad.as_posix()}:5: RL006 hot path f allocates via np.zeros() every call"
    assert out[-1] == "reprolint: 1 violation(s) (RL006: 1)"
    bad.write_text("import numpy as np\n")
    assert main([str(bad)]) == 0
    assert capsys.readouterr().out == "reprolint: clean\n"


def test_render_text_counts_each_rule_in_id_order():
    from repro.analysis.__main__ import render_text
    from repro.analysis.reprolint import Violation

    violations = [
        Violation("b.py", 3, "RL006", "second"),
        Violation("a.py", 1, FRAMEWORK_RULE_ID, "first"),
        Violation("b.py", 7, "RL006", "third"),
    ]
    lines = render_text(violations).splitlines()
    assert lines[:-1] == [v.format() for v in violations]
    assert lines[-1] == "reprolint: 3 violation(s) (RL000: 1, RL006: 2)"
    assert render_text([]) == "reprolint: clean"


def test_cli_update_golden_requires_a_reason(tmp_path):
    import pytest

    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit):
        main(["--update-golden", str(tmp_path)])


# ---------------------------------------------------------------------------
# The real tree stays clean (the CI acceptance gate)
# ---------------------------------------------------------------------------


def test_production_tree_is_clean():
    violations = lint_paths(["src"])
    assert violations == [], "\n".join(v.format() for v in violations)


def _repro_imports():
    """``(path, importing sub-package, dotted target)`` of every import in
    ``src/repro``, relative imports resolved."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root.parent).parts[:-1]
        owner = package[1] if len(package) > 1 else path.stem
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = package[: len(package) - node.level + 1] if node.level else ()
                stem = ".".join([*base, *([node.module] if node.module else [])])
                targets = [f"{stem}.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                yield str(path.relative_to(root)), owner, target


_INFERS = {"md", "deepmd", "parallel", "serving", "utils"}
_TRAINS = {"training"}
_EXECUTES = _INFERS | _TRAINS
_PRICES = {"hardware", "perfmodel", "core", "analysis"}


@pytest.mark.parametrize(
    "importers, forbidden",
    [
        # ``repro.reference`` reads production modules, never the reverse —
        # the autograd framework lives there, so training never imports it
        pytest.param(None, {"reference"}, id="production-never-imports-reference"),
        # what a step executes never reads the Fugaku model, the experiment
        # harness or the linter; ``perfmodel.reconcile`` looks the other way
        pytest.param(_EXECUTES, _PRICES, id="execution-never-imports-model"),
        # the paper's "TensorFlow removement" (§III-B.1): a frozen model is
        # all the MD engine, the ranks and the server load; training is
        # offline and hands back a new one
        pytest.param(_INFERS, _TRAINS, id="inference-never-imports-framework"),
    ],
)
def test_import_direction(importers, forbidden):
    """Layering pins: one row per direction, ``importers=None`` meaning every
    sub-package outside ``forbidden``."""
    offenders = [
        (path, target)
        for path, owner, target in _repro_imports()
        if (owner in importers if importers is not None else owner not in forbidden)
        and target.startswith("repro.")
        and target.split(".")[1] in forbidden
    ]
    assert offenders == []
