"""Graceful degradation: a backend that falls back instead of failing.

:class:`FallbackBackend` wraps a concrete
:class:`~repro.core.backends.SolverBackend` and, when a factorization
or solve raises :class:`~repro.errors.SingularMatrixError`, rebuilds
the same system stack on the next backend in a degradation chain —
``sparse`` → ``dense`` and ``stack`` → ``dense`` by default (``dense``
is terminal: dense LAPACK LU with partial pivoting is the most robust engine
in the registry, so a failure there is a genuinely singular system and
re-raises).  The replacement is re-stamped with the cached chord
conductances and the solve is repeated, so the caller never sees the
failure — it sees a slower answer plus an entry in
:attr:`FallbackBackend.events` that the stepper copies into result
metadata (``result.fallback_events``, ``result.backend``).

The degradation is *sticky*: once a backend has failed, every later
solve of the run uses the replacement rather than re-failing first.

Deterministic chaos hooks: when a
:class:`~repro.resilience.FaultPlan` is ambiently active
(:func:`repro.resilience.fault_context`), the wrapper consults
``plan.decide("backend", <active backend name>)`` before each solve and
injects a synthetic factorization failure on a positive decision — the
way the chaos suite exercises the chain on systems that are perfectly
well-conditioned.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import SolverBackend, create_backend
from repro.errors import SingularMatrixError
from repro.resilience.faults import active_plan

__all__ = ["FALLBACK_CHAIN", "FallbackBackend"]

#: Default degradation chain: who replaces whom on a solver failure.
#: ``dense`` is absent on purpose — it is the terminal backend.
FALLBACK_CHAIN: dict[str, str] = {"sparse": "dense", "stack": "dense"}


class FallbackBackend:
    """Wrap a solver backend with a sticky degradation chain.

    Parameters
    ----------
    primary:
        The already-constructed backend to try first.
    chain:
        ``{failing_name: replacement_name}`` overriding
        :data:`FALLBACK_CHAIN`.  A name missing from the chain is
        terminal: its failures propagate.

    The wrapper satisfies the :class:`~repro.core.backends.SolverBackend`
    contract by delegation, so the steppers use it exactly like a
    concrete backend; ``name`` reports the *currently active* engine.
    """

    def __init__(
        self, primary: SolverBackend, chain: dict[str, str] | None = None
    ) -> None:
        self._active = primary
        self._chain = dict(FALLBACK_CHAIN if chain is None else chain)
        self.events: list[dict] = []
        self._chords = None
        self._retired_reuses = 0

    # -- delegated contract ---------------------------------------------

    @property
    def name(self) -> str:
        return self._active.name

    def begin_run(self, flops) -> None:
        self.events = []
        self._retired_reuses = 0
        self._active.begin_run(flops)

    @property
    def factor_reuses(self) -> int:
        """Reused factorizations of the run, across every engine it used."""
        return self._retired_reuses + self._active.factor_reuses

    def stamp(self, chords) -> None:
        # Cache a copy so a degraded replacement can be stamped into the
        # same state the failing backend was in.
        self._chords = np.array(chords, dtype=float, copy=True)
        self._active.stamp(chords)

    def g_diagonal(self):
        return self._active.g_diagonal()

    def c_matvec(self, states):
        return self._active.c_matvec(states)

    def g_matvec(self, states):
        return self._active.g_matvec(states)

    def solve_transient(self, h, rhs, trapezoidal: bool = False, start=None):
        return self._solve(
            "solve_transient", h, rhs, trapezoidal=trapezoidal, start=start
        )

    def solve_conductance(self, rhs):
        return self._solve("solve_conductance", rhs)

    def __getattr__(self, item):
        # Everything else (systems, size, flops...) reads through to the
        # active backend.
        return getattr(self._active, item)

    # -- degradation ----------------------------------------------------

    def _solve(self, op: str, *args, **kwargs):
        while True:
            try:
                self._maybe_inject(op)
                return getattr(self._active, op)(*args, **kwargs)
            except SingularMatrixError as exc:
                if not self._degrade(op, exc):
                    raise

    def _maybe_inject(self, op: str) -> None:
        plan = active_plan()
        if plan is not None and plan.decide("backend", self._active.name):
            raise SingularMatrixError(
                f"injected factorization failure on backend "
                f"{self._active.name!r} ({op})"
            )

    def _degrade(self, op: str, exc: Exception) -> bool:
        next_name = self._chain.get(self._active.name)
        if next_name is None:
            return False
        replacement = create_backend(
            next_name, self._active.systems, flops=self._active.flops
        )
        if self._chords is not None:
            replacement.stamp(self._chords)
        self._retired_reuses += self._active.factor_reuses
        self.events.append(
            {
                "from": self._active.name,
                "to": next_name,
                "op": op,
                "error": f"{type(exc).__name__}: {exc}",
            }
        )
        self._active = replacement
        return True
