"""Call-graph resolver edge cases: the conservative contract, pinned.

Each case builds a :class:`ProjectIndex` + :class:`CallGraph` over a small
in-memory project and asserts the exact edge set — the resolver must *prove*
a callee, never guess one, so a call it cannot prove gets no edge.
"""

import textwrap

from repro.analysis.callgraph import CallGraph
from repro.analysis.project import ProjectIndex, module_name_for
from repro.analysis.reprolint import ParsedFile


def build(sources: dict[str, str]) -> tuple[ProjectIndex, CallGraph]:
    parsed = {
        path: ParsedFile.parse(textwrap.dedent(source), path)
        for path, source in sources.items()
    }
    index = ProjectIndex.build(parsed)
    return index, CallGraph.build(index)


def edges(graph: CallGraph, caller: str) -> set[str]:
    return graph.edges.get(caller, set())


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------


def test_module_name_strips_src_and_init():
    assert module_name_for("src/repro/md/neighbor.py") == "repro.md.neighbor"
    assert module_name_for("src/repro/parallel/__init__.py") == "repro.parallel"


def test_from_import_with_same_name_resolves_across_modules():
    # regression: the resolver's cycle guard must key on (module, name) —
    # a bare-name guard made every `from x import f` self-shadow and return None
    _, graph = build(
        {
            "src/pkg/a.py": """\
                from .b import helper

                def caller():
                    return helper()
                """,
            "src/pkg/b.py": """\
                def helper():
                    pass
                """,
        }
    )
    assert edges(graph, "pkg.a::caller") == {"pkg.b::helper"}


def test_recursion_terminates_and_roots_are_excluded():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def loop(n):
                    if n:
                        return loop(n - 1)
                    return other()

                def other():
                    pass
                """
        }
    )
    assert edges(graph, "pkg.mod::loop") == {"pkg.mod::loop", "pkg.mod::other"}
    reached = graph.reachable_from(["pkg.mod::loop"])
    assert reached == {"pkg.mod::other": "pkg.mod::loop"}


def test_import_as_binds_the_module_for_attribute_calls():
    _, graph = build(
        {
            "src/pkg/a.py": """\
                import pkg.b as helpers

                def caller():
                    return helpers.helper()
                """,
            "src/pkg/b.py": """\
                def helper():
                    pass
                """,
        }
    )
    assert edges(graph, "pkg.a::caller") == {"pkg.b::helper"}


def test_re_exported_name_is_followed_to_its_definition():
    _, graph = build(
        {
            "src/pkg/a.py": """\
                from .api import helper

                def caller():
                    return helper()
                """,
            "src/pkg/api.py": """\
                from .b import helper
                """,
            "src/pkg/b.py": """\
                def helper():
                    pass
                """,
        }
    )
    assert edges(graph, "pkg.a::caller") == {"pkg.b::helper"}


def test_nested_def_shadows_a_module_function_of_the_same_name():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def leaf():
                    pass

                def outer():
                    def leaf():
                        pass
                    return leaf()
                """
        }
    )
    assert edges(graph, "pkg.mod::outer") == {"pkg.mod::outer.leaf"}


def test_method_names_are_not_visible_as_bare_names():
    # a class body is not an enclosing scope: a bare ``helper()`` inside a
    # method is the module function, never the sibling method
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def helper():
                    pass

                class Engine:
                    def helper(self):
                        pass

                    def run(self):
                        return helper()
                """
        }
    )
    assert edges(graph, "pkg.mod::Engine.run") == {"pkg.mod::helper"}


def test_reachability_reports_the_first_root_that_reaches_a_function():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def first():
                    shared()

                def second():
                    shared()
                    own()

                def shared():
                    leaf()

                def leaf():
                    pass

                def own():
                    pass
                """
        }
    )
    reached = graph.reachable_from(["pkg.mod::first", "pkg.mod::second"])
    assert reached == {
        "pkg.mod::shared": "pkg.mod::first",
        "pkg.mod::own": "pkg.mod::second",
        "pkg.mod::leaf": "pkg.mod::first",
    }


# ---------------------------------------------------------------------------
# methods and constructors
# ---------------------------------------------------------------------------

def test_self_method_call_resolves_through_the_owner_class():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class Engine:
                    def run(self):
                        self.step()

                    def step(self):
                        pass
                """
        }
    )
    assert edges(graph, "pkg.mod::Engine.run") == {"pkg.mod::Engine.step"}


def test_self_method_call_reaches_an_inherited_method():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class Base:
                    def step(self):
                        pass

                class Engine(Base):
                    def run(self):
                        self.step()
                """
        }
    )
    assert edges(graph, "pkg.mod::Engine.run") == {"pkg.mod::Base.step"}


def test_cls_method_call_resolves_through_the_mro():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class Base:
                    @classmethod
                    def build(cls):
                        pass

                class Table(Base):
                    @classmethod
                    def make(cls):
                        return cls.build()
                """
        }
    )
    assert edges(graph, "pkg.mod::Table.make") == {"pkg.mod::Base.build"}


def test_cyclic_bases_terminate_method_lookup():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class A(B):
                    pass

                class B(A):
                    pass

                def make():
                    return A()
                """
        }
    )
    assert edges(graph, "pkg.mod::make") == set()


def test_unbound_class_method_and_module_attribute_calls():
    _, graph = build(
        {
            "src/pkg/a.py": """\
                from . import b
                from .b import Table

                def caller():
                    Table.build()
                    b.helper()
                    b.Table()
                """,
            "src/pkg/b.py": """\
                class Table:
                    def __init__(self):
                        pass

                    def build(self):
                        pass

                def helper():
                    pass
                """,
        }
    )
    assert edges(graph, "pkg.a::caller") == {
        "pkg.b::Table.build",
        "pkg.b::helper",
        "pkg.b::Table.__init__",
    }


def test_constructor_reaches_init_through_the_mro():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class Base:
                    def __init__(self):
                        pass

                class Sub(Base):
                    pass

                def make():
                    return Sub()
                """
        }
    )
    assert edges(graph, "pkg.mod::make") == {"pkg.mod::Base.__init__"}


def test_nested_def_is_reached_when_called_by_name():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def outer():
                    def inner():
                        leaf()
                    return inner()

                def defines_only():
                    def unused():
                        leaf()

                def leaf():
                    pass
                """
        }
    )
    assert edges(graph, "pkg.mod::outer") == {"pkg.mod::outer.inner"}
    assert edges(graph, "pkg.mod::outer.inner") == {"pkg.mod::leaf"}
    assert edges(graph, "pkg.mod::defines_only") == set()


# ---------------------------------------------------------------------------
# lambdas
# ---------------------------------------------------------------------------


def test_lambda_body_is_attributed_to_the_enclosing_function():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def apply(f):
                    return f()

                def leaf():
                    pass

                def caller():
                    return apply(lambda: leaf())
                """
        }
    )
    assert "pkg.mod::leaf" in edges(graph, "pkg.mod::caller")


# ---------------------------------------------------------------------------
# the conservative contract: no edge, never a guess
# ---------------------------------------------------------------------------


def test_multi_level_receiver_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def run(self):
                    self.backend.step()
                """
        }
    )
    assert edges(graph, "pkg.mod::run") == set()


def test_unknown_name_call_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def run():
                    mystery()
                """
        }
    )
    assert edges(graph, "pkg.mod::run") == set()


def test_parameter_receiver_method_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def run(engine):
                    engine.compute()
                """
        }
    )
    assert edges(graph, "pkg.mod::run") == set()


def test_local_instance_method_call_gets_no_edge():
    # a local's type is not inferred, so neither the base method nor any
    # subclass override is guessed
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class Base:
                    def compute(self):
                        pass

                class Sub(Base):
                    def compute(self):
                        pass

                def driver():
                    field = Base()
                    field.compute()
                """
        }
    )
    assert edges(graph, "pkg.mod::driver") == set()


def test_assigned_alias_call_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def f():
                    pass

                g = f

                def caller():
                    g()
                """
        }
    )
    assert edges(graph, "pkg.mod::caller") == set()


def test_dispatch_dict_call_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                class A:
                    def __init__(self):
                        pass

                KINDS = {"a": A}

                def make(kind):
                    return KINDS[kind]()
                """
        }
    )
    assert edges(graph, "pkg.mod::make") == set()


def test_function_passed_as_argument_gets_no_edge():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def handler(message):
                    pass

                def register(conn):
                    conn.on_message(handler)
                """
        }
    )
    assert edges(graph, "pkg.mod::register") == set()


def test_reachability_stop_predicate_is_a_hard_boundary():
    _, graph = build(
        {
            "src/pkg/mod.py": """\
                def root():
                    middle()

                def middle():
                    leaf()

                def leaf():
                    pass
                """
        }
    )
    reached = graph.reachable_from(
        ["pkg.mod::root"], stop=lambda fid: fid == "pkg.mod::middle"
    )
    assert reached == {}
