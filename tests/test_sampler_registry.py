"""Sampler-registry invariants, goldens, and the refactor's byte-identity.

Three layers of protection:

* property tests every registered sampler must pass (weights sum to 1,
  indices in range / strictly ascending, same-seed determinism) — the
  ``sampler-matrix`` CI job runs exactly these over the whole registry,
* differential tests against recorded goldens
  (``tests/goldens/sampler_goldens.json``): migrated SimPoint and the
  classic baselines must reproduce the exact points the ad-hoc code
  selected before the registry existed, and ``stratified2``, ``ranked``
  and ``mav`` the points (and MAV matrix digest) recorded before the
  sort-based MAV footprint and the bincount Lloyd update,
* regression tests for the ``cluster_size`` truncation fix and the
  registry plumbing (parsing, feature gating, contract enforcement).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError, SimPointError
from repro.experiments.frontier import _frontier_features
from repro.pin.tools.mav import MAV_DIM
from repro.pinpoints.pipeline import run_pinpoints
from repro.sampling import (
    SliceFeatures,
    all_samplers,
    get_sampler,
    parse_sampler_arg,
    prefix_sample,
    random_sample,
    run_sampler,
    sampler_names,
    stratified_sample,
    systematic_sample,
)
from repro.sampling.features import collect_features
from repro.workloads.spec2017 import get_descriptor

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "sampler_goldens.json").read_text()
)

QUICK = dict(slice_size=3000, total_slices=120)


def make_features(n=64, blocks=32, seed=11, with_mav=True):
    rng = np.random.default_rng(seed)
    bbv = np.abs(rng.standard_normal((n, blocks)))
    bbv /= bbv.sum(axis=1, keepdims=True)
    mav = rng.random((n, MAV_DIM)) if with_mav else None
    return SliceFeatures(
        benchmark="620.omnetpp_s", slice_size=3000, seed=seed,
        bbv=bbv, slice_indices=np.arange(n), mav=mav,
    )


def point_tuples(points):
    return [(p.slice_index, p.cluster, p.weight, p.cluster_size)
            for p in points]


class TestRegistryInvariants:
    """Every registered sampler honours the output contract."""

    @pytest.fixture(scope="class")
    def features(self):
        return make_features()

    @pytest.mark.parametrize("name", sampler_names())
    @pytest.mark.parametrize("budget", [1, 5, 16])
    def test_contract(self, features, name, budget):
        result = run_sampler(name, features, budget)
        indices = [p.slice_index for p in result.points]
        assert result.num_points >= 1
        assert result.num_points <= budget
        assert all(0 <= i < features.num_slices for i in indices)
        assert indices == sorted(set(indices))
        assert sum(p.weight for p in result.points) == pytest.approx(1.0)
        assert all(p.weight > 0 for p in result.points)

    @pytest.mark.parametrize("name", sampler_names())
    def test_same_seed_same_output(self, features, name):
        first = run_sampler(name, features, 8)
        second = run_sampler(name, features, 8)
        assert point_tuples(first.points) == point_tuples(second.points)

    @pytest.mark.parametrize("name", sampler_names())
    def test_replay_points_is_permutation(self, features, name):
        result = run_sampler(name, features, 8)
        assert sorted(point_tuples(result.replay_points())) == sorted(
            point_tuples(result.points)
        )

    def test_budget_clamped_to_slice_count(self, features):
        result = run_sampler("random", features, features.num_slices + 50)
        assert result.num_points == features.num_slices

    def test_budget_must_be_positive(self, features):
        with pytest.raises(SimPointError):
            run_sampler("random", features, 0)

    def test_specs_are_documented(self):
        for spec in all_samplers():
            assert spec.summary
            assert spec.paper_ref
            for param in spec.params:
                assert param.help


class TestGoldens:
    """The migrated samplers reproduce pre-refactor selections exactly."""

    @pytest.mark.parametrize("bench", sorted(GOLDENS["simpoint"]))
    def test_simpoint_byte_identical(self, bench):
        golden = GOLDENS["simpoint"][bench]
        out = run_pinpoints(bench, **golden["quick"])
        assert out.simpoints.k == golden["k"]
        got = [
            {
                "slice_index": p.slice_index,
                "cluster": p.cluster,
                "weight": p.weight,
                "cluster_size": p.cluster_size,
            }
            # Golden order is the legacy cluster order, which is also
            # the replay order the regional pinballs are logged in.
            for p in out.selection.replay_points()
        ]
        assert got == golden["points"]
        assert [rp.region_start for rp in out.regional] == [
            p["slice_index"] for p in golden["points"]
        ]

    @pytest.mark.parametrize("name,bench", [
        (name, bench)
        for name, by_bench in sorted(GOLDENS["samplers"].items())
        for bench in sorted(by_bench)
    ])
    def test_frontier_sampler_byte_identical(self, name, bench):
        """MAV features and k-means feed these selections bit for bit."""
        golden = GOLDENS["samplers"][name][bench]
        out = run_pinpoints(bench, sampler=name, **golden["quick"])
        got = [
            {
                "slice_index": p.slice_index,
                "cluster": p.cluster,
                "weight": p.weight,
                "cluster_size": p.cluster_size,
            }
            for p in out.selection.points
        ]
        assert got == golden["points"]
        if name == "mav":
            assert out.simpoints.k == golden["k"]
            assert hashlib.sha256(out.features.mav.tobytes()).hexdigest() == (
                golden["mav_sha256"]
            )

    @pytest.mark.parametrize("case", range(len(GOLDENS["baselines"])))
    def test_baselines_match_goldens(self, case):
        golden = GOLDENS["baselines"][case]
        n, k, seed = golden["num_slices"], golden["num_points"], golden["seed"]
        produced = {
            "random": random_sample(n, k, seed=seed),
            "systematic": systematic_sample(n, k, offset=seed % n),
            "stratified": stratified_sample(n, k, seed=seed),
            "prefix": prefix_sample(n, k),
        }
        for strategy, points in produced.items():
            got = [
                {"slice_index": p.slice_index, "cluster": p.cluster,
                 "weight": p.weight}
                for p in points
            ]
            assert got == golden[strategy], strategy

    @pytest.mark.parametrize("strategy", ["random", "stratified"])
    def test_registry_rng_matches_seed_path(self, strategy):
        """ctx.rng dispatch draws identically to the legacy seed path."""
        golden = GOLDENS["baselines"][0]
        n, k, seed = golden["num_slices"], golden["num_points"], golden["seed"]
        features = make_features(n=n, seed=seed, with_mav=False)
        result = run_sampler(strategy, features, k)
        got = [
            {"slice_index": p.slice_index, "cluster": p.cluster,
             "weight": p.weight}
            for p in result.points
        ]
        assert got == golden[strategy]


class TestClusterSizeFix:
    """Baseline cluster sizes tile the execution exactly (REP bug fix)."""

    @pytest.mark.parametrize("n,k", [(120, 7), (100, 10), (33, 4), (7, 7),
                                     (64, 5), (101, 3)])
    def test_sizes_sum_to_num_slices(self, n, k):
        for points in (
            random_sample(n, k, seed=1),
            systematic_sample(n, k),
            stratified_sample(n, k, seed=1),
            prefix_sample(n, k),
        ):
            sizes = [p.cluster_size for p in points]
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_remainder_goes_to_lowest_ranks(self):
        points = prefix_sample(10, 3)
        assert [p.cluster_size for p in points] == [4, 3, 3]


class TestParsing:
    def test_plain_name(self):
        assert parse_sampler_arg("simpoint") == ("simpoint", {})

    def test_params_coerced(self):
        name, params = parse_sampler_arg("ranked:set_size=7,repeats=1")
        assert name == "ranked"
        assert params == {"set_size": 7, "repeats": 1}
        assert isinstance(params["set_size"], int)

    def test_unknown_sampler(self):
        with pytest.raises(ConfigError, match="unknown sampler"):
            parse_sampler_arg("bogus")

    def test_unknown_param(self):
        with pytest.raises(ConfigError, match="no parameter"):
            parse_sampler_arg("random:bogus=1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_sampler_arg("ranked:set_size=abc")

    def test_malformed_item(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_sampler_arg("ranked:set_size")


class TestFeatureGating:
    def test_mav_requires_memory_features(self):
        features = make_features(with_mav=False)
        with pytest.raises(SimPointError, match="memory access vectors"):
            run_sampler("mav", features, 4)

    def test_mav_spec_declares_requirement(self):
        assert get_sampler("mav").requires == ("bbv", "mav")

    def test_pipeline_collects_mav_on_demand(self):
        out = run_pinpoints("620.omnetpp_s", sampler="mav", **QUICK)
        assert out.features.mav is not None
        assert out.features.mav.shape == (120, MAV_DIM)
        assert out.num_points == len(out.regional)

    def test_default_pipeline_skips_mav(self):
        out = run_pinpoints("620.omnetpp_s", **QUICK)
        assert out.features.mav is None

    @pytest.mark.parametrize("flow,samplers", [
        ("simpoint", ("simpoint", "random")),
        ("simpoint", ("simpoint", "mav")),
        ("mav", ("simpoint", "mav")),
    ])
    def test_frontier_bundle_matches_a_fresh_profile(self, flow, samplers):
        """The frontier reuses the flow's BBVs instead of re-profiling."""
        out = run_pinpoints("620.omnetpp_s", sampler=flow, **QUICK)
        bundle = _frontier_features(out, samplers)
        requires = tuple(sorted(
            {f for s in samplers for f in get_sampler(s).requires}
        ))
        fresh = collect_features(
            out.program, out.whole, benchmark=out.benchmark,
            seed=get_descriptor("620.omnetpp_s").seed, requires=requires,
        )
        assert (bundle.benchmark, bundle.slice_size, bundle.seed) == (
            fresh.benchmark, fresh.slice_size, fresh.seed
        )
        for field in ("bbv", "slice_indices", "mav"):
            got, want = getattr(bundle, field), getattr(fresh, field)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestPipelineAcrossSamplers:
    """Every sampler flows through the same pinball machinery."""

    @pytest.mark.parametrize(
        "name", ["random", "systematic", "stratified2", "ranked"]
    )
    def test_non_clustering_sampler_end_to_end(self, name):
        out = run_pinpoints(
            "620.omnetpp_s", max_k=6, sampler=name, **QUICK
        )
        assert out.selection.sampler == name
        assert len(out.regional) == out.num_points
        starts = sorted(rp.region_start for rp in out.regional)
        assert starts == [p.slice_index for p in out.selection.points]
        with pytest.raises(SimPointError, match="not.*clustering"):
            out.simpoints

    def test_sampler_params_reach_the_sampler(self):
        out = run_pinpoints(
            "620.omnetpp_s", max_k=6, sampler="systematic",
            sampler_params={"offset": 3}, **QUICK
        )
        assert out.selection.points[0].slice_index == 3
