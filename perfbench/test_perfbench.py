"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import catfrac  # noqa: E402
import catfrac.elements  # noqa: E402
import catfrac.fincat  # noqa: E402
import catfrac.fractions  # noqa: E402

import instances as inst  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


FIXED_ORDER = ("chain_all", "cyclic_all", "pairs", "routes")


def run_once(ops, pinned=None) -> run.Checker:
    checker = run.Checker(workloads, pinned)
    run.run_round(ops, checker, [])
    return checker


@pytest.fixture(scope="module")
def seed0_rounds(tmp_path_factory):
    """Every workload's seed-0 round, built twice in separate directories."""
    return {
        w: [workloads.build_round(w, 0, tmp_path_factory.mktemp(f"{w}{i}")) for i in range(2)]
        for w in workloads.WORKLOADS
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_digests(seed0_rounds, workload):
    first, second = seed0_rounds[workload]
    assert len(first) == 25
    assert [op.key for op in first] == [op.key for op in second]
    assert [op.inputs for op in first] == [op.inputs for op in second]
    pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))[workload]
    a, b = run_once(first, pinned), run_once(second, pinned)
    assert a.failures == [] and b.failures == []
    assert a.seen == b.seen == pinned


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_no_errors(seed0_rounds, workload, tmp_path):
    ops = workloads.build_round(workload, 7, tmp_path)
    seed0 = seed0_rounds[workload][0]
    assert [op.inputs for op in ops] != [op.inputs for op in seed0]
    # the ops whose cost swings with declaration order take their orders
    # from ORDERS_SEED, not from the seed
    fixed = [i for i, op in enumerate(ops) if op.key.split("/")[0] in FIXED_ORDER]
    assert [ops[i].inputs for i in fixed] == [seed0[i].inputs for i in fixed]
    checker = run_once(ops)
    assert checker.failures == []
    assert checker.attempted == len(ops)


def test_wrong_known_answer_raises_error_rate():
    C = inst.chain(4)
    inp = catfrac.FractionsInput(C, C.arrows)
    right = workloads.localize_op("right", inp, 16)
    wrong = workloads.localize_op("wrong", inp, 15)
    checker = run_once([right, wrong])
    assert checker.attempted == 2
    assert checker.failures == ["wrong: 16 classes, expected 15"]


def test_control_that_passes_counts_as_failure():
    D, _ = inst.chain_diagram([2, 1], "contravariant", random.Random(0))
    X = inst.chain(2)
    control = workloads.verifier_op(
        "control", (D, X), lambda: catfrac.verify_oplax_colimit(D, X), passes=False
    )
    assert run_once([control]).failures == ["control: the negative control passed"]


def test_pinned_digest_mismatch_fails():
    C = inst.cyclic(3)
    op = workloads.localize_op("z3", catfrac.FractionsInput(C, C.arrows), 3)
    assert run_once([op], pinned={"z3": "0" * 16}).failures[0].startswith("z3: digest")


def test_swapped_tags_control_fails_for_every_declaration_order():
    for seed in range(5):
        rng = random.Random(seed)
        D, _ = inst.chain_diagram([2, 1], "contravariant", rng)
        op = workloads.swapped_tags_op("control", D, inst.chain(2, rng))
        assert run_once([op]).failures == []


def test_self_time_of_nested_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 0.5
        traced_inner()
        now[0] += 0.25

    traced_inner = tracer.span("test.inner", inner)
    tracer.span("test.outer", outer)()
    assert tracer.calls["test.inner"] == 2
    assert tracer.self_s["test.inner"] == 4.0
    assert tracer.calls["test.outer"] == 1
    assert tracer.self_s["test.outer"] == 1.75


def test_modification_yield_counts_component_tuples():
    tracer = Tracer()
    per_object = tracer.span("fincat.enumerate_nat_trans", lambda n: list(range(n)))

    def modifications():
        per_object(2)
        per_object(3)
        return ["kept", "kept"]

    tracer.span("diagram.enumerate_modifications", modifications)()
    figures = tracer.metrics()
    assert figures["fincat.nat_trans_out"] == 5
    assert figures["diagram.modifications_out"] == 2
    assert figures["diagram.modification_yield"] == 2 / 6


def test_tracer_wraps_every_binding_and_restores():
    original = catfrac.fincat.compose
    functors = catfrac.fincat.enumerate_functors
    with Tracer():
        wrapped = catfrac.fincat.compose
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert catfrac.compose is wrapped
        assert catfrac.fractions.compose is wrapped
        assert catfrac.elements.compose is wrapped
        assert catfrac.elements.enumerate_functors.__wrapped__ is functors
    assert catfrac.fincat.compose is original
    assert catfrac.fractions.compose is original
    assert catfrac.elements.enumerate_functors is functors


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    ops = workloads.build_round("localize", 0, tmp_path)
    with Tracer() as tracer:
        run.run_round(ops, run.Checker(workloads, None), [])
    figures = tracer.metrics()
    figures["bench.trace_overhead"] = 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in figures
    }
    # every op localizes once; the 8 failing inputs raise AxiomError
    assert figures["fractions.localize.calls"] == 25
    assert figures["fractions.axiom_errors"] == 8
    assert figures["fractions.span_compose.self_s"] > 0
    assert figures["ambient.pullback.calls"] == 0
    assert figures["cli.main.calls"] == 0
    assert figures["diagram.modification_yield"] == 0


def test_end_to_end_metrics_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "localize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "correct" not in out.stdout
