"""The package's lazy public API and what each entry point imports."""
import importlib
import os
import subprocess
import sys

import pytest

import ospkit
from ospkit import dump_mechanism, instance_data_for, materialize, write_report

# the public API as the package listed it when it imported every module
PUBLIC = [
    "AlmostOrderedResult", "CheckResult", "ClassPartition", "Constraint",
    "EquivalenceReport", "GreedyResult", "ImplementationTree",
    "KLimitedResult", "LeafNode", "MechanismError", "MechanismFormatError",
    "NeedAnswer", "NegativeCycleWitness", "OspGraph", "PSystem",
    "PoolingFinding", "ProfileClass", "QueryClass", "QueryNode",
    "QueryRecord", "Rat", "SearchResult", "StickyResult", "SynthesisResult",
    "TaxationFinding", "TwoWayReport", "appendix_b", "approx_ratio",
    "as_cost_tree", "build_k_osp_graph", "build_profile_classes",
    "check_k_step_osp", "classify_query", "compress", "dump_mechanism",
    "dumps_mechanism", "english_auction_tree", "equivalence_class",
    "extract_tree", "fixture_names", "format_rational",
    "forward_greedy_solution", "graph_to_data", "has_negative_cycle",
    "instance_data_for", "instance_to_data", "is_almost_ordered",
    "is_k_limitable", "is_k_limited", "is_revealable", "is_two_way_greedy",
    "k_step_neighborhood", "k_vs_infinity_equivalence", "load_instance",
    "load_mechanism", "loads_instance", "loads_mechanism", "materialize",
    "mechanism_to_data", "normalize_horizon", "parse_horizon",
    "parse_rational", "query_count", "random_k_limited_tree",
    "rank_quotient", "removable", "render_csv", "render_report",
    "require_binary_outcomes", "reveal_at_k2", "reverse_greedy_solution",
    "run_two_way_greedy", "scale_guard", "search_two_way_greedy",
    "serialize", "sticky_edges_check", "strong_ineffectiveness_check",
    "surviving_solutions", "synthesize_payments", "taxation_diagnostics",
    "tree_from_nested", "unremovable", "validate_tree", "write_report",
]


class TestLazyApi:
    def test_all_is_unchanged(self):
        assert ospkit.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_modules_object(self, name):
        module = importlib.import_module(f"ospkit.{ospkit._MODULE_OF[name]}")
        assert getattr(ospkit, name) is getattr(module, name)

    def test_dir_lists_every_name(self):
        listed = dir(ospkit)
        assert set(PUBLIC) <= set(listed)
        assert "__version__" in listed

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from ospkit import *", ns)
        del ns["__builtins__"]
        assert sorted(ns) == PUBLIC
        assert all(ns[name] is getattr(ospkit, name) for name in PUBLIC)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
            ospkit.no_such
        with pytest.raises(ImportError):
            exec("from ospkit import no_such", {})


# -- what a fresh interpreter imports ---------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ospkit.__file__)))


def imports(cwd, *args) -> set[str]:
    """The modules a fresh `python -X importtime ARGS` imports, read from
    its import-time log.  `python -m ospkit` runs the package's __main__
    as the script, so the log leaves that one out."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def ospkit_imports(cwd, *args) -> set[str]:
    """The ospkit modules among `imports(cwd, *args)`."""
    return {
        name
        for name in imports(cwd, *args)
        if name == "ospkit" or name.startswith("ospkit.")
    }


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    where = tmp_path_factory.mktemp("footprint")
    dump_mechanism(materialize("english(3,5)")[1], str(where / "english.json"))
    ps, domain = materialize("single_item(3,4)")[1]
    write_report(instance_data_for(ps, domain), str(where / "instance.json"))
    return where


class TestImportFootprint:
    def test_import_loads_no_submodule(self, files):
        assert ospkit_imports(files, "-c", "import ospkit") == {"ospkit"}

    def test_verify_loads_its_modules_only(self, files):
        got = ospkit_imports(
            files, "-m", "ospkit", "verify", "--mechanism", "english.json",
            "--k", "2",
        )
        assert got == {
            "ospkit", "ospkit.cli", "ospkit.io", "ospkit.model",
            "ospkit.rational", "ospkit.verifier",
        }

    @pytest.mark.parametrize(
        "verb",
        [["cmon"], ["payments", "--out", "priced.json"]],
        ids=["cmon", "payments"],
    )
    def test_class_graph_verbs_skip_greedy(self, files, verb):
        got = ospkit_imports(
            files, "-m", "ospkit", *verb, "--mechanism", "english.json",
            "--k", "2",
        )
        assert "ospkit.cmon" in got
        assert not got & {"ospkit.greedy", "ospkit.fixtures"}

    def test_verify_loads_no_dataclasses_inspect_or_csv(self, files):
        got = imports(
            files, "-m", "ospkit", "verify", "--mechanism", "english.json",
            "--k", "2",
        )
        assert "ospkit.verifier" in got
        assert not got & {"dataclasses", "inspect", "csv"}

    def test_no_module_loads_dataclasses(self, files):
        # the records are named tuples: no module needs dataclasses
        got = imports(
            files, "-c", "import ospkit.cli, ospkit.cmon, ospkit.fixtures, "
            "ospkit.greedy, ospkit.io, ospkit.model, ospkit.verifier",
        )
        assert "ospkit.greedy" in got
        assert not got & {"dataclasses", "inspect"}

    def test_greedy_skips_cmon(self, files):
        got = ospkit_imports(
            files, "-m", "ospkit", "greedy", "--instance", "instance.json",
            "--truth", "1,2,3",
        )
        assert "ospkit.greedy" in got
        assert not got & {"ospkit.cmon", "ospkit.fixtures"}
