"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro import (
    FrequentEpisodeMiner,
    GpuSimEngine,
    GpuSimulator,
    MiningProblem,
    SerialMiner,
    UPPERCASE,
    generate_level,
    get_algorithm,
    get_card,
)
from repro.data import (
    MarketConfig,
    PlantedEpisode,
    SpikeTrainConfig,
    generate_market_stream,
    generate_spike_stream,
)
from repro.mining.alphabet import Alphabet
from repro.mining.counting import count_batch
from repro.mining.policies import MatchPolicy


class TestEndToEndMining:
    """Miner + GPU engine + selector, against the serial oracle."""

    @pytest.fixture(scope="class")
    def stream(self):
        config = MarketConfig(
            n_products=10,
            n_events=5000,
            rules=(((0, 1, 2), 0.05), ((3, 4), 0.06)),
            seed=13,
        )
        return config.alphabet(), generate_market_stream(config)

    def test_gpu_mining_equals_serial_mining(self, stream):
        alphabet, db = stream
        serial = SerialMiner(alphabet, threshold=0.02, max_level=3).mine(db)
        engine = GpuSimEngine(device=get_card("GTX280"), algorithm="auto")
        gpu = FrequentEpisodeMiner(
            alphabet, threshold=0.02, engine=engine, max_level=3
        ).mine(db)
        assert gpu.all_frequent == serial.all_frequent
        # one kernel launch per counted level, each with a timing report
        assert len(engine.reports) == len(gpu.levels)
        assert engine.total_kernel_ms > 0

    def test_planted_rules_found(self, stream):
        alphabet, db = stream
        result = FrequentEpisodeMiner(alphabet, threshold=0.02).mine(db)
        from repro.mining.episode import Episode

        assert Episode((3, 4)) in result.all_frequent
        assert Episode((0, 1, 2)) in result.all_frequent

    def test_every_algorithm_drives_the_miner(self, stream):
        alphabet, db = stream
        baseline = FrequentEpisodeMiner(alphabet, threshold=0.03).mine(db)
        for algo in (1, 2, 3, 4):
            engine = GpuSimEngine(algorithm=algo, threads_per_block=64)
            mined = FrequentEpisodeMiner(
                alphabet, threshold=0.03, engine=engine
            ).mine(db)
            assert mined.all_frequent == baseline.all_frequent, algo


class TestNeuroscienceScenario:
    def test_spike_cascades_mined_with_expiration(self):
        """The §6 expiration feature: a tight window rejects slow
        coincidences while keeping the planted fast cascades."""
        planted = PlantedEpisode(neurons=(2, 7), occurrences=80, max_lag=1)
        config = SpikeTrainConfig(
            n_neurons=10, background_events=4000, planted=(planted,), seed=6
        )
        stream = generate_spike_stream(config)
        alpha = config.alphabet()
        from repro.mining.episode import Episode

        tight = count_batch(
            stream, [Episode((2, 7))], alpha.size, MatchPolicy.EXPIRING, window=2
        )[0]
        loose = count_batch(
            stream, [Episode((2, 7))], alpha.size, MatchPolicy.SUBSEQUENCE
        )[0]
        assert tight >= 80  # planted cascades survive the tight window
        assert loose >= tight  # loosening only adds coincidences


class TestCrossCardConsistency:
    def test_output_identical_timing_differs(self):
        rng = np.random.default_rng(23)
        db = rng.integers(0, 26, 3000).astype(np.uint8)
        eps = tuple(generate_level(UPPERCASE, 2)[:30])
        prob = MiningProblem(db, eps, 26)
        outputs, times = [], []
        for card in ("8800GTS512", "9800GX2", "GTX280"):
            sim = GpuSimulator(get_card(card))
            res = sim.launch(get_algorithm(3)(prob, threads_per_block=64))
            outputs.append(res.output)
            times.append(res.report.total_ms)
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[1], outputs[2])
        assert len(set(times)) == 3  # three distinct modeled times


class TestDeterminism:
    def test_full_pipeline_deterministic(self):
        config = SpikeTrainConfig(
            n_neurons=8,
            background_events=2000,
            planted=(PlantedEpisode((0, 3), 25, max_lag=2),),
            seed=44,
        )
        alpha = config.alphabet()

        def run_once():
            stream = generate_spike_stream(config)
            return FrequentEpisodeMiner(
                alpha, threshold=0.01, policy=MatchPolicy.SUBSEQUENCE,
                max_level=2,
            ).mine(stream)

        a, b = run_once(), run_once()
        assert a.all_frequent == b.all_frequent
