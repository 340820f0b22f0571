"""The benchmark's workloads: one `nfbf run` config each, plus how a run splits it.

A run executes a workload as a sequence of rounds. Round i is one
`run_experiment` over `trials` consecutive trials whose base seed is
`chunk_seed(seed, i, trials)`; untraced, each round is one fresh `nfbf run`
child process. The first `rate_rounds` rounds of every run form the fixed
trial set the sum-rate metrics average, so a given seed yields the same sum
rates however many rounds the run's time allows.

Every key the independent checks read (array, users, paths, SNR, power,
codebook size) is written into the config, so the checks never rely on a
program default.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_SCHEMES = (
    "aobf-perfect",
    "aobf-imperfect",
    "steer-perfect",
    "steer-imperfect",
    "hbf-zf-perfect",
    "hbf-zf-imperfect",
    "hbf-wmmse-perfect",
    "hbf-wmmse-imperfect",
)

# Layers every workload reaches, named "<module>.<function>".
_COMMON_LAYERS = (
    "channel.random_scenario",
    "codebook.build_codebook",
    "codebook.beam_sweep",
    "mm.aobf_imperfect_csi",
    "codebook.approximate_channel_matrices",
    "metrics.sum_rate",
)

_BASE = {
    "wavelength": 1.0,
    "spacing": 0.5,
    "n_dis": 320,
    "beta": 1.6,
    "p": 1.0,
    "l": 3,
    "r_count": 4,
    "s_count": 4,
    "snr_db": 20.0,
}

# Seeds of consecutive runs must not share trials: a run draws at most this many.
SEED_STRIDE = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # ExperimentSpec fields without trials and base_seed
    trials: int  # trials per round
    rate_rounds: int  # rounds that feed the sum-rate metrics; every run runs at least these
    required: tuple  # layers the traced run must see called

    def round_config(self) -> dict:
        return dict(self.config, trials=self.trials)


def chunk_seed(seed: int, round_index: int, trials: int) -> int:
    """Base seed of round `round_index` of the run with workload seed `seed`."""
    return seed * SEED_STRIDE + round_index * trials


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="snr-sweep",
            why=(
                "the paper's headline figure: all 8 schemes over 9 SNR points; analog beams "
                "come from the per-trial cache, WMMSE re-solves at every point"
            ),
            config=dict(
                _BASE,
                experiment="sumrate-vs-snr",
                schemes=list(ALL_SCHEMES),
                sweep=[-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
                n_bs=64,
                k=4,
            ),
            trials=5,
            rate_rounds=4,
            required=_COMMON_LAYERS
            + (
                "mm.aobf_perfect_csi",
                "hbf.analog_beam_steering",
                "hbf.effective_channel",
                "hbf.hbf_zf",
                "hbf.hbf_wmmse",
            ),
        ),
        Workload(
            name="aux-plateau",
            why=(
                "imperfect-CSI MM on 1, 16 and 36 auxiliary points per user, nearly all stopped "
                "by the t_max cap; no hybrid code runs, so an hbf change must show nothing here"
            ),
            config=dict(
                _BASE,
                experiment="aux-sweep",
                schemes=["aobf-imperfect"],
                sweep=[1, 4, 6],
                n_bs=64,
                k=4,
            ),
            trials=6,
            rate_rounds=4,
            required=_COMMON_LAYERS,
        ),
        Workload(
            name="xl-array",
            why=(
                "N = 64, 128, 256: the N^2 codebook dominates set-up and peak memory, and MM "
                "products grow as N^2; no WMMSE"
            ),
            config=dict(
                _BASE,
                experiment="sumrate-vs-nbs",
                schemes=["aobf-perfect", "aobf-imperfect", "steer-imperfect"],
                sweep=[64, 128, 256],
                n_bs=64,
                k=4,
            ),
            trials=4,
            rate_rounds=3,
            required=_COMMON_LAYERS + ("mm.aobf_perfect_csi", "hbf.analog_beam_steering"),
        ),
    )
}
