"""The benchmark's workloads: chip bring-up, link metrology and compilation.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations come in rounds (one chip;
one pass over the seven all-to-all circuits; one compile round), and a run
always ends on a round boundary, so every run does whole rounds of the same
work.  ``setup`` builds everything the loop needs and may be called more
than once; ``step(k)`` runs operation ``k`` and returns its (start, end)
``perf_counter`` times, its kind and a failure reason (None when every check
passed).  Checks run
outside the timed region.
"""

from __future__ import annotations

import copy
import math
import statistics
import time

import numpy as np

from mzmesh import calibration as cal
from mzmesh import compiler, metrology, mesh, runner
from mzmesh.emulator import EmulatedChip

# Acceptance criteria 8 and 9: the paper's fidelity bands.
LINK_F_MEAN_BAND = (0.985, 0.999)
LINK_F_MIN = 0.96
UNITARY_F_BAND = (0.88, 0.99)
RESIDUAL_MAX = 1e-10


def derive_seed(seed: int, *keys: int) -> int:
    """Independent 31-bit seed for one input, from the workload seed."""
    return int(np.random.default_rng([seed, *keys]).integers(2**31))


def paper_circuits() -> dict[str, compiler.CircuitSpec]:
    """The default circuits, routed afresh (explicit matchings bypass the cache)."""
    return compiler.ohqe_circuits(dict(compiler.DEFAULT_MATCHINGS))


def perfect_matchings(ports: tuple[int, ...]):
    if not ports:
        yield ()
        return
    first, rest = ports[0], ports[1:]
    for k, other in enumerate(rest):
        for tail in perfect_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, other),) + tail


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return (start, time.perf_counter()), out


class Workload:
    name = ""
    round_len = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.link_f: list[float] = []
        self.unitary_f: list[float] = []

    def label(self, k: int) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, k: int) -> tuple[float, str, str | None]:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Checks on the run as a whole, beyond the per-operation ones."""
        return []

    def fidelities(self) -> tuple[float, float]:
        """(fidelity_mean, fidelity_min) of the outputs so far."""
        return float(np.mean(self.link_f)), float(min(self.unitary_f))

    def report(self, walls: list[float], kinds: list[str]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed before the result line."""
        raise NotImplementedError

    def _link_report(self) -> dict[str, tuple[float, str]]:
        return {
            "link_f_mean": (float(np.mean(self.link_f)), "frac"),
            "link_f_min": (float(min(self.link_f)), "frac"),
            "unitary_f_min": (float(min(self.unitary_f)), "frac"),
        }

    def _link_band_checks(self) -> list[str]:
        lo, hi = LINK_F_MEAN_BAND
        mean = float(np.mean(self.link_f))
        return [] if lo <= mean <= hi else [f"link_f_mean {mean:.4f} outside [{lo}, {hi}]"]


def _band_failures(link_f: list[float], unitary_f: list[float], links) -> str | None:
    if min(link_f) < LINK_F_MIN:
        return f"link fidelity {min(link_f):.4f} < {LINK_F_MIN}"
    lo, hi = UNITARY_F_BAND
    bad = [f for f in unitary_f if not lo <= f <= hi]
    if bad:
        return f"unitary fidelity {bad[0]:.4f} outside [{lo}, {hi}]"
    unreliable = [r.pair for r in links if not r.reliable]
    if unreliable:
        return f"unreliable link sweep for pairs {unreliable}"
    return None


class Bringup(Workload):
    """Fresh paper-noise chips through ``runner.run_chip`` (criterion 8's per-chip work)."""

    name = "bringup"

    def label(self, k):
        return f"chip{k}:{derive_seed(self.seed, k)}"

    def setup(self):
        self.circuits = paper_circuits()
        self.noise = mesh.paper_noise_spec()

    def step(self, k):
        chip_seed = derive_seed(self.seed, k)

        def chip():
            state = runner.build_mesh(self.noise, chip_seed)
            return runner.run_chip(state, runner.paper_emu_config(chip_seed),
                                   circuits=self.circuits)

        span, (summary, record, results) = timed(chip)
        self.link_f.extend(summary.link_f)
        self.unitary_f.extend(summary.unitary_f.values())
        if record.failures:
            return span, "chip", f"{len(record.failures)} node calibration failures"
        links = [r for res in results for r in res.links]
        return span, "chip", _band_failures(
            summary.link_f, list(summary.unitary_f.values()), links)

    def run_checks(self):
        return self._link_band_checks()

    def report(self, walls, kinds):
        chip_s = statistics.median(walls)
        return {
            "chips_per_s": (len(walls) / sum(walls), "1/s"),
            "chip_s": (chip_s, "s"),
            "chip_s.samples": (float(len(walls)), "count"),
            "criterion8_serial_s": (100.0 * chip_s, "s"),
            **self._link_report(),
        }


class Measure(Workload):
    """One calibrated chip; repeated passes over the all-to-all circuits."""

    name = "measure"
    round_len = len(compiler.ALL_TO_ALL_CIRCUITS)

    def label(self, k):
        return f"pass{k // self.round_len}:{compiler.ALL_TO_ALL_CIRCUITS[k % self.round_len]}"

    def setup(self):
        self.circuits = paper_circuits()
        chip_seed = derive_seed(self.seed, 0)
        state = runner.build_mesh(mesh.paper_noise_spec(), chip_seed)
        self.chip = EmulatedChip(state, runner.paper_emu_config(chip_seed))
        record = cal.calibrate_full_mesh(self.chip)
        if record.failures:
            raise RuntimeError(f"set-up calibration failed: {record.failures}")
        # Hadamard balance points are per circuit, so each circuit gets its
        # own copy of the full-mesh record.
        self.records = {}
        for name in compiler.ALL_TO_ALL_CIRCUITS:
            self.records[name] = cal.calibrate_circuit(
                self.chip, copy.deepcopy(record), self.circuits[name])

    def step(self, k):
        p, c = divmod(k, self.round_len)
        name = compiler.ALL_TO_ALL_CIRCUITS[c]
        spec, record, chip = self.circuits[name], self.records[name], self.chip

        def circuit():
            cal.program_circuit(chip, record, spec)
            traces = {
                pair: metrology.run_phase_sweep(
                    chip, record, spec, pair, seed=derive_seed(self.seed, 1, p, c, i))
                for i, pair in enumerate(spec.matching)
            }
            cal.program_circuit(chip, record, spec)
            estimate = metrology.reconstruct_unitary(chip, record, spec, traces)
            f_n = metrology.unitary_fidelity(
                compiler.ideal_circuit_magnitudes(spec), estimate.magnitudes)
            return [metrology.LinkReport.from_trace(t) for t in traces.values()], f_n

        span, (links, f_n) = timed(circuit)
        link_f = [f for r in links for f in (r.f_plus, r.f_minus)]
        self.link_f.extend(link_f)
        self.unitary_f.append(f_n)
        return span, "circuit", _band_failures(link_f, [f_n], links)

    def run_checks(self):
        return self._link_band_checks()

    def report(self, walls, kinds):
        out = {
            "circuits_per_s": (len(walls) / sum(walls), "1/s"),
            "circuit_ms": (1e3 * statistics.median(walls), "ms"),
            "circuit_ms.samples": (float(len(walls)), "count"),
        }
        # the highest percentile with at least ten samples beyond it
        if len(walls) >= 100:
            q = 1.0 - 10.0 / len(walls)
            out[f"circuit_ms.p{100 * q:.0f}"] = (1e3 * float(np.quantile(walls, q)), "ms")
        out.update(self._link_report())
        return out


class Compile(Workload):
    """Clements decompositions at N in {8, 16, 32, 64} and routing of all
    105 perfect matchings at N = 8; no emulator."""

    name = "compile"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        # imported here so the other workloads do not need the test tree
        from oracles import bfs_min_crossings, haar_unitary

        self.oracle = bfs_min_crossings
        self.haar = haar_unitary
        sizes = (8, 16) if smoke else (8, 16, 32, 64)
        self.decomps = [(n, variant) for n in sizes for variant in (True, False)]
        matchings = list(perfect_matchings(tuple(range(1, 9))))
        self.matchings = matchings[:4] if smoke else matchings
        self.round_len = len(self.decomps) + len(self.matchings)
        rng = np.random.default_rng(derive_seed(seed, 2))
        # The BFS oracle takes about 0.4 s a matching, so each run checks a
        # seeded sample of the routes against it.
        n_oracle = 2 if smoke else 6
        self.oracle_checked = set(
            rng.choice(len(self.matchings), size=n_oracle, replace=False).tolist())
        self.residuals: list[float] = []
        self.crossings: dict[int, int] = {}

    def label(self, k):
        r, j = divmod(k, self.round_len)
        if j < len(self.decomps):
            n, variant = self.decomps[j]
            return f"round{r}:decompose:N{n}:{'reversed' if variant else 'standard'}"
        return f"round{r}:route:{j - len(self.decomps)}"

    def setup(self):
        self.circuits = paper_circuits()
        self.targets: dict[int, np.ndarray] = {}

    def step(self, k):
        r, j = divmod(k, self.round_len)
        if j < len(self.decomps):
            return self._decompose(r, j)
        return self._route(j - len(self.decomps))

    def _decompose(self, r, j):
        n, variant = self.decomps[j]
        u = self.haar(n, np.random.default_rng(derive_seed(self.seed, 3, r, n)))

        def verified():
            plan = compiler.clements_decompose(u, reversed_variant=variant)
            return compiler.reconstruct(plan)

        span, v = timed(verified)
        residual = float(np.max(np.abs(v - u)))
        self.residuals.append(residual)
        self.unitary_f.append(abs(np.trace(u.conj().T @ v)) / n)
        failure = None if residual <= RESIDUAL_MAX else f"residual {residual:.3g} at N={n}"
        return span, "decompose", failure

    def _route(self, m):
        matching = self.matchings[m]

        def routed():
            spec = compiler.route_matching(matching)
            upgraded, _ = compiler.upgrade_to_corrected(spec)
            return spec, upgraded, compiler.ideal_circuit_magnitudes(upgraded)

        span, (spec, upgraded, mags) = timed(routed)
        crossings = len(spec.crossings())
        if self.crossings.setdefault(m, crossings) != crossings:
            return span, "route", f"matching {matching}: crossing count changed between rounds"
        s = 1.0 / math.sqrt(2.0)
        for (i, j), (n_out, m_out) in upgraded.outputs.items():
            block = mags[[n_out - 1, m_out - 1]][:, [i - 1, j - 1]]
            if not np.allclose(block, s, atol=1e-12):
                return span, "route", f"pair {(i, j)} not mixed at outputs {(n_out, m_out)}"
        if not np.allclose((mags**2).sum(axis=0), 1.0, atol=1e-12):
            return span, "route", f"matching {matching}: |U| columns not normalised"
        if m in self.oracle_checked:
            self.oracle_checked.discard(m)
            best = self.oracle(matching)
            if crossings != best:
                return span, "route", f"matching {matching}: {crossings} crossings, minimum {best}"
        return span, "route", None

    def run_checks(self):
        if self.oracle_checked:
            return [f"{len(self.oracle_checked)} sampled routes never reached the oracle"]
        return []

    def fidelities(self):
        return float(np.mean(self.unitary_f)), float(min(self.unitary_f))

    def report(self, walls, kinds):
        def rate(kind):
            times = [w for w, k in zip(walls, kinds) if k == kind]
            return len(times) / sum(times)

        return {
            "decompositions_per_s": (rate("decompose"), "1/s"),
            "routes_per_s": (rate("route"), "1/s"),
            "decomp_residual_max": (max(self.residuals), "1"),
            "route_crossings": (float(sum(self.crossings.values())), "count"),
        }


WORKLOADS = {w.name: w for w in (Bringup, Measure, Compile)}
