"""Table-driven Gibbs sweep of Algorithm 1, with a compiled and a Python backend.

The collapsed sampler's per-fact conditional (Equation 2) only ever evaluates
``log(m + alpha)`` for integer occupancies ``m`` bounded by each source's
claim count, so every transcendental the sampler can possibly need is known
ahead of time.  :class:`KernelTables` precomputes them once per fit into flat
lookup tables; from then on a sweep is pure integer indexing plus IEEE-754
adds and subtracts.

A claim enters Equation 2 only through its *code*, ``2 * source + obs``:
the tables keep one int64 code per claim and the index bases once per code
(``2S`` of them), not per claim.  A claim's term under the fact's current
truth is then a function of the code and that source's confusion counts
alone, which change only when some fact flips.

Two backends walk those tables with the same arithmetic, facts in plain order
``0..F-1``, claims left to right:

* ``"compiled"`` — ``gibbs_sweep.c``, about eighty lines of C.  It caches
  the ``2 x 2S`` terms, refills them at the start of each sweep and
  recomputes a source's four entries after a flip that moves its counts, so
  a fact's sum is one table read per claim.  It is compiled with the system
  C compiler on the first :meth:`CollapsedGibbsSampler.run
  <repro.core.gibbs.CollapsedGibbsSampler.run>` of a process (never at
  import) and loaded through :mod:`ctypes`.  The flags forbid floating-point
  contraction and fast-math, so its doubles round exactly as Python's do.
* ``"python"`` — :class:`PythonWalk`, the uncached reference the compiled
  sweep is tested against, and the fallback wherever no compiler exists or
  the build or load fails.  It evaluates every claim's term afresh.

A cached term is the same double as a freshly evaluated one: the same four
table reads and the same subtractions in the same order, on counts no flip
has moved since.  The backends therefore add the same values in the same
order and make bit-identical flip decisions for the same seed; the
golden-chain tests pin both to chains frozen from the sampler's earlier
kernels.  There is no switch: the backend follows from what the platform can
build, and the one build attempt per process is remembered.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.priors import LTMPriors
from repro.data.dataset import ClaimMatrix

__all__ = ["KernelTables", "PythonWalk", "CompiledWalk", "make_walk", "backend_name", "compiled_sweep"]

_SOURCE = Path(__file__).with_name("gibbs_sweep.c")
#: Plain IEEE arithmetic only: no FMA contraction, no fast-math, no -march.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc", "clang")


class KernelTables:
    """Shared canonical arithmetic of both sweep backends.

    For every source ``s`` (with ``d_s`` claims), truth value ``t`` and
    observation ``o`` the tables hold::

        log_num[num_offset(s, t, o) + m] = log(m + alpha[s, t, o])   m in [0, d_s]
        log_den[den_offset(s, t) + m]    = log(m + alpha_sum[s, t])  m in [0, d_s]

    A claim enters Equation 2 only through its source and observation, so
    each claim ``i`` carries one *code* ``claim_code[i] = 2 * source + obs``
    and every index base lives per code, not per claim: ``code_index`` is a
    ``(2, 4, 2S)`` int64 block whose rows for truth value ``t`` are
    ``num_base``, ``count_idx``, ``den_base`` and ``total_idx``.  With
    ``nb, ci, db, ti = code_index[t][:, k]`` (and primes for ``1 - t``), a
    claim of code ``k`` contributes, under current truth ``t``::

        (log_num[nb + n - 1] - log_den[db + N - 1]) - (log_num[nb' + n'] - log_den[db' + N'])

    where ``n = counts[ci]`` and ``N = totals[ti]`` are its bucket count and
    bucket total in the flattened confusion counts.  Both backends evaluate
    exactly this expression — the only floating-point operations after
    construction are subtractions and left-to-right additions, which
    IEEE-754 defines identically for C doubles and Python floats.

    The term depends on nothing but ``(t, k)`` and the counts of ``k``'s
    source, so the compiled sweep keeps it in a ``2 x 2S`` table and
    recomputes a source's entries only when a flip moves its counts; the
    Python walk re-evaluates it per claim.  The cached value is the same
    double as the per-claim one — same operands, same operation order — and
    a fact's sum adds the same values in the same claim order, so both walks
    make the same flip decisions bit for bit.
    """

    def __init__(self, claims: ClaimMatrix, priors: LTMPriors):
        num_sources = claims.num_sources
        alpha = priors.alpha_array(claims.source_names)  # (S, 2, 2)
        alpha_sum = alpha.sum(axis=2)  # (S, 2)
        lengths = claims.claim_counts_per_source() + 1  # occupancies 0..d_s inclusive

        # Table layout: per source a block of 4 (respectively 2) sub-tables,
        # one per (t, o) (respectively t), each ``lengths[s]`` long.
        self.log_num = _log_table(lengths, alpha.reshape(num_sources, 4))
        self.log_den = _log_table(lengths, alpha_sum)
        num_offsets = np.concatenate(([0], np.cumsum(4 * lengths)))[:-1]
        den_offsets = np.concatenate(([0], np.cumsum(2 * lengths)))[:-1]

        self.claim_code = 2 * np.asarray(claims.claim_source, dtype=np.int64) + np.asarray(
            claims.claim_obs, dtype=np.int64
        )
        code_source = np.repeat(np.arange(num_sources, dtype=np.int64), 2)
        code_obs = np.tile(np.array([0, 1], dtype=np.int64), num_sources)
        code_lengths = lengths[code_source]
        index = np.empty((2, 4, 2 * num_sources), dtype=np.int64)
        for t in (0, 1):
            index[t, 0] = num_offsets[code_source] + (t * 2 + code_obs) * code_lengths
            # Flattened (S, 2, 2) confusion-count and (S, 2) total indices.
            index[t, 1] = (code_source * 2 + t) * 2 + code_obs
            index[t, 2] = den_offsets[code_source] + t * code_lengths
            index[t, 3] = code_source * 2 + t
        self.code_index = index

        log_beta = np.log(priors.beta_array())
        # delta_log_beta[t] = log beta_t - log beta_{1-t}: the prior part of
        # the current-vs-other log-ratio.
        self.delta_log_beta = np.array(
            [log_beta[0] - log_beta[1], log_beta[1] - log_beta[0]]
        )
        self.prior_true = priors.truth.mean

    @staticmethod
    def switch_thresholds(uniforms: np.ndarray) -> np.ndarray:
        """Per-fact flip thresholds for one sweep's uniform draws.

        The rule "flip when ``u < 1 / (1 + exp(delta))``" is exactly "flip
        when ``delta < log((1 - u) / u)``" (both sides strictly monotone);
        evaluating the right-hand side once per sweep as a single
        whole-array call removes every per-fact ``exp``.  ``u == 0.0`` maps
        to ``+inf`` (always flip), matching the sigmoid rule.
        """
        with np.errstate(divide="ignore"):
            return np.log((1.0 - uniforms) / uniforms)


def _log_table(lengths: np.ndarray, alpha_rows: np.ndarray) -> np.ndarray:
    """``log(m + alpha_rows[s, j])`` for ``m`` in ``0..lengths[s]-1``, row-major per source."""
    blocks = [
        (np.arange(length) + alpha[:, None]).ravel()
        for length, alpha in zip(lengths.tolist(), alpha_rows)
    ]
    return np.log(np.concatenate(blocks))


class PythonWalk:
    """The reference sweep: a pure-Python walk over the claims in fact order.

    It evaluates every claim's Equation-2 term afresh, with no cache — the
    uncached reference the compiled sweep's term table is tested against.
    The per-code index bases are expanded to per-claim lists once, so a
    claim costs no extra lookup.  Holds the chain state (truth, flattened
    counts and totals) as Python lists between sweeps; :meth:`truth` and
    :meth:`counts` materialise it.
    """

    kernel = "python"

    def __init__(self, claims: ClaimMatrix, tables: KernelTables, truth: np.ndarray, counts: np.ndarray):
        self.codes = tables.code_index.shape[2]
        self.table_entries = tables.log_num.size + tables.log_den.size
        self._fact_ptr = claims.fact_ptr.tolist()
        self._index = [
            [row.tolist() for row in tables.code_index[t][:, tables.claim_code]] for t in (0, 1)
        ]
        self._log_num = tables.log_num.tolist()
        self._log_den = tables.log_den.tolist()
        self._dlb = tables.delta_log_beta.tolist()
        self._prior_true = float(tables.prior_true)
        self._truth = truth.tolist()
        self._counts = counts.reshape(-1).tolist()
        self._totals = counts.sum(axis=2).reshape(-1).tolist()

    def sweep(self, uniforms: np.ndarray, thresholds: np.ndarray) -> int:
        """Resample every fact once, in order; return how many flipped."""
        fact_ptr, index = self._fact_ptr, self._index
        log_num, log_den, dlb = self._log_num, self._log_den, self._dlb
        truth, counts, totals = self._truth, self._counts, self._totals
        prior_true = self._prior_true
        uniforms_list = uniforms.tolist()
        thresholds_list = thresholds.tolist()
        flips = 0
        for fact in range(len(truth)):
            lo, hi = fact_ptr[fact], fact_ptr[fact + 1]
            current = truth[fact]
            if lo == hi:
                # A fact with no claims: sample from the truth prior alone.
                new_truth = 1 if uniforms_list[fact] < prior_true else 0
                if new_truth != current:
                    truth[fact] = new_truth
                    flips += 1
                continue
            nb_c, ci_c, db_c, ti_c = index[current]
            nb_o, ci_o, db_o, ti_o = index[1 - current]
            # Equation (2): counts exclude fact f's own claims for the bucket
            # it currently occupies (the ``- 1`` on the current side).
            acc = 0.0
            for i in range(lo, hi):
                acc += (
                    log_num[nb_c[i] + counts[ci_c[i]] - 1]
                    - log_den[db_c[i] + totals[ti_c[i]] - 1]
                ) - (
                    log_num[nb_o[i] + counts[ci_o[i]]]
                    - log_den[db_o[i] + totals[ti_o[i]]]
                )
            if acc + dlb[current] < thresholds_list[fact]:
                for i in range(lo, hi):
                    counts[ci_c[i]] -= 1
                    counts[ci_o[i]] += 1
                    totals[ti_c[i]] -= 1
                    totals[ti_o[i]] += 1
                truth[fact] = 1 - current
                flips += 1
        return flips

    def truth(self) -> np.ndarray:
        """The current truth assignment (a fresh array)."""
        return np.asarray(self._truth, dtype=np.int64)

    def counts(self) -> np.ndarray:
        """The current flattened ``(S * 2 * 2,)`` confusion counts."""
        return np.asarray(self._counts, dtype=np.int64)


class CompiledWalk:
    """:class:`PythonWalk`'s arithmetic run by the C sweep on numpy state.

    The C sweep caches each ``(truth, code)`` term in ``w``, a ``2 x 2S``
    buffer the walk allocates once and the sweep refills at its start.
    """

    kernel = "compiled"

    def __init__(
        self,
        claims: ClaimMatrix,
        tables: KernelTables,
        truth: np.ndarray,
        counts: np.ndarray,
        sweep_fn: Any,
    ):
        self.codes = tables.code_index.shape[2]
        self.table_entries = tables.log_num.size + tables.log_den.size
        self._sweep_fn = sweep_fn
        self._prior_true = float(tables.prior_true)
        self._dlb0, self._dlb1 = (float(v) for v in tables.delta_log_beta)
        self._truth = np.array(truth, dtype=np.int64)
        self._counts = np.array(counts, dtype=np.int64).reshape(-1)
        self._totals = np.array(counts, dtype=np.int64).sum(axis=2).reshape(-1)
        # Every array the C sweep reads is C-contiguous int64 or float64.  The
        # walk holds each one for its lifetime and never reallocates them, so
        # their addresses are taken once; the sweep updates the state in place.
        self._arrays = (
            np.ascontiguousarray(claims.fact_ptr, dtype=np.int64),
            np.ascontiguousarray(tables.claim_code, dtype=np.int64),
            np.ascontiguousarray(tables.code_index, dtype=np.int64),
            np.ascontiguousarray(tables.log_num, dtype=np.float64),
            np.ascontiguousarray(tables.log_den, dtype=np.float64),
            self._counts,
            self._totals,
            self._truth,
            np.empty(2 * self.codes, dtype=np.float64),  # the term cache w
        )
        self._fixed_args = (len(self._truth), self.codes) + tuple(
            array.ctypes.data for array in self._arrays
        )

    def sweep(self, uniforms: np.ndarray, thresholds: np.ndarray) -> int:
        """Resample every fact once, in order; return how many flipped."""
        uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        if uniforms.shape != self._truth.shape or thresholds.shape != self._truth.shape:
            raise ValueError("the C sweep reads one uniform and one threshold per fact")
        return self._sweep_fn(
            *self._fixed_args,
            uniforms.ctypes.data,
            thresholds.ctypes.data,
            self._prior_true,
            self._dlb0,
            self._dlb1,
        )

    def truth(self) -> np.ndarray:
        """The live truth assignment; the next sweep overwrites it."""
        return self._truth

    def counts(self) -> np.ndarray:
        """The current flattened ``(S * 2 * 2,)`` confusion counts."""
        return self._counts


def make_walk(claims: ClaimMatrix, priors: LTMPriors, truth: np.ndarray, counts: np.ndarray):
    """The sweep for one chain: compiled when the platform builds it, else Python.

    ``truth`` is the initial assignment and ``counts`` the ``(S, 2, 2)``
    confusion counts under it; the walk keeps its own copies of both.
    """
    tables = KernelTables(claims, priors)
    sweep_fn = compiled_sweep()
    if sweep_fn is None:
        return PythonWalk(claims, tables, truth, counts)
    return CompiledWalk(claims, tables, truth, counts, sweep_fn)


# -- the compiled backend --------------------------------------------------------
_build_lock = threading.Lock()
#: Empty until the process's one build attempt; then ``[sweep function or None]``.
_build_result: list = []


def compiled_sweep():
    """The compiled sweep function, building it on first use; ``None`` if unavailable."""
    if not _build_result:
        with _build_lock:
            if not _build_result:
                _build_result.append(_build())
    return _build_result[0]


def backend_name() -> str:
    """``"compiled"`` or ``"python"``: the backend the next fit runs.

    Cheap: before the process's build attempt it only checks that a C
    compiler is on ``PATH``, and never compiles anything.
    """
    if _build_result:
        return "python" if _build_result[0] is None else "compiled"
    return "compiled" if _find_compiler() else "python"


def _find_compiler() -> str | None:
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _build():
    """Compile and load ``gibbs_sweep.c``; ``None`` on any failure."""
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        workdir = tempfile.mkdtemp(prefix="repro-gibbs-")
    except OSError:
        return None
    try:
        library = os.path.join(workdir, "gibbs_sweep.so")
        done = subprocess.run(
            [compiler, *_CFLAGS, "-o", library, str(_SOURCE)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=120,
        )
        if done.returncode != 0:
            return None
        sweep_fn = ctypes.CDLL(library).ltm_gibbs_sweep
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        # The loaded library stays mapped after its file is removed.
        shutil.rmtree(workdir, ignore_errors=True)
    pointer = ctypes.c_void_p
    sweep_fn.restype = ctypes.c_int64
    sweep_fn.argtypes = [
        ctypes.c_int64, ctypes.c_int64,  # num_facts, num_codes
        pointer, pointer, pointer,  # fact_ptr, claim_code, code_index
        pointer, pointer,  # log_num, log_den
        pointer, pointer, pointer, pointer,  # counts, totals, truth, w (updated in place)
        pointer, pointer,  # uniforms, thresholds
        ctypes.c_double, ctypes.c_double, ctypes.c_double,  # prior_true, dlb0, dlb1
    ]
    return sweep_fn
