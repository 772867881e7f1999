"""Canonical, version-salted job fingerprints.

The simulator is bit-exact deterministic: the same job spec plus the
same seed produces the same waveforms on every run.  That turns a
content-addressed result cache from a heuristic into an *exact* one —
provided the address really is a function of the job's physics and
nothing else.  :func:`job_key` computes that address:

* **Normalization.**  A job is reduced to a canonical nested mapping
  before hashing.  Mapping key order never matters (keys are sorted at
  encoding time), dataclass defaults are materialized, numpy scalars
  and arrays collapse to plain Python values, and a circuit given as
  ``netlist=`` source text is hashed *after* parse-normalization — two
  netlist spellings (comments, whitespace, case, unit suffixes) that
  parse to the same element list share one fingerprint.
* **Version salting.**  The digest covers a fingerprint-schema number
  and the installed ``repro`` package version, so a solver upgrade can
  never serve stale waveforms.
* **Honesty about closures.**  A job carrying a bare callable (a
  lambda builder, an unregistered circuit object with behaviourful
  methods we cannot introspect) raises :class:`UncacheableJobError`
  instead of guessing; callers treat those jobs as permanent cache
  misses.

The functions here are pure — no I/O, no store access — so they are
safe to call from workers, the daemon and the CLIs alike.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from typing import Any

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError

__all__ = [
    "FINGERPRINT_SCHEMA",
    "UncacheableJobError",
    "canonical_job",
    "canonical_value",
    "job_key",
]

#: Bump when the canonicalization rules change; part of the hash salt.
FINGERPRINT_SCHEMA = 1

#: Exact types :func:`canonical_value` returns unchanged.
_PLAIN = frozenset({bool, int, float, str})


class UncacheableJobError(AnalysisError):
    """The job cannot be given a content address.

    Raised for specs carrying live Python objects the canonicalizer
    cannot faithfully serialize (lambdas, closures, open handles).
    Callers should degrade to a cache miss, never crash.
    """


def _canonical_circuit(circuit) -> dict:
    """Canonical form of a :class:`~repro.circuit.Circuit`.

    Element *names* and the circuit title are presentation only — they
    never enter the MNA mathematics — so they are excluded: renaming
    ``R1`` to ``Rload`` keeps the fingerprint.  Element order is kept
    (it fixes the MNA node ordering), as are node names, values,
    waveforms and device-model parameters.
    """
    record: dict[str, Any] = {"__circuit__": True}
    for category in (
        "resistors",
        "capacitors",
        "inductors",
        "voltage_sources",
        "current_sources",
        "devices",
        "mosfets",
    ):
        entries = []
        for element in getattr(circuit, category):
            payload = {
                key: value
                for key, value in vars(element).items()
                if key != "name"
            }
            entries.append(canonical_value(payload))
        record[category] = entries
    return record


def _canonical_object(value: Any) -> dict:
    """Canonical form of a waveform / device-model style object.

    These are immutable parameter holders: their identity is their
    class plus their attribute dict.  Objects with ``__slots__`` or
    attribute-less C extensions are rejected as uncacheable.
    """
    try:
        state = vars(value)
    except TypeError:
        raise UncacheableJobError(
            f"cannot canonicalize {type(value).__name__!r} object "
            f"(no attribute dict)"
        ) from None
    cls = type(value)
    record = {"__class__": f"{cls.__module__}.{cls.__qualname__}"}
    for key, attr in state.items():
        record[key] = canonical_value(attr)
    return record


def canonical_value(value: Any) -> Any:
    """Reduce *value* to a JSON-encodable canonical form.

    Handles the vocabulary job specs are built from: scalars, numpy
    scalars and arrays, mappings, sequences, sets, dataclasses,
    circuits, waveforms and device models.  Anything callable — or
    otherwise opaque — raises :class:`UncacheableJobError`.
    """
    if value is None or type(value) in _PLAIN:
        return value
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist()}
    if isinstance(value, Circuit):
        return _canonical_circuit(value)
    if isinstance(value, Mapping):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical_value(item) for item in value)
    if is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        record = {"__class__": f"{cls.__module__}.{cls.__qualname__}"}
        for spec in fields(value):
            record[spec.name] = canonical_value(getattr(value, spec.name))
        return record
    if callable(value):
        raise UncacheableJobError(
            f"cannot canonicalize callable {value!r}; pass builders by "
            f"registered name to make the job cacheable"
        )
    return _canonical_object(value)


def _canonical_design(job) -> Any:
    """Normalize the circuit/builder/netlist triple of a circuit job.

    * ``builder`` given by name stays symbolic: the name plus its
      ``params`` is the design.
    * ``netlist`` source text is parsed (with ``params`` applied as
      ``.PARAM`` overrides) and the resulting :class:`Circuit` is
      canonicalized, so equivalent spellings hash identically.
    * A ``circuit`` given as a template *name* stays symbolic — the
      name plus the ``params`` the template builder will consume.
    * A ready ``circuit`` object is canonicalized directly, with any
      ``params`` kept alongside it.
    """
    if getattr(job, "builder", None) is not None:
        if not isinstance(job.builder, str):
            raise UncacheableJobError(
                "jobs with callable builders are uncacheable; use a "
                "registered builder name"
            )
        return {
            "builder": job.builder,
            "params": canonical_value(job.params),
        }
    if getattr(job, "netlist", None) is not None:
        from repro.circuit.parser import parse_netlist

        circuit = parse_netlist(job.netlist, params=dict(job.params))
        return canonical_value(circuit)
    return {
        "circuit": canonical_value(job.circuit),
        "params": canonical_value(getattr(job, "params", None) or {}),
    }


#: Runtime job classes get their design triple normalized; field names
#: folded into the design entry are dropped from the flat field walk.
_DESIGN_FIELDS = frozenset({"circuit", "builder", "netlist", "params"})


def canonical_job(job, shared: dict | None = None) -> dict:
    """Canonical mapping for a runtime job (or any job-shaped object).

    The four runtime job dataclasses (``TransientJob``, ``ACJob``,
    ``EnsembleJob``, ``EnsembleTransientJob``) and the sweep wrappers
    are all plain dataclasses; every field participates in the
    fingerprint.  Circuit-carrying jobs get their design triple
    normalized through :func:`_canonical_design`.

    *shared* memoizes the canonical form of field values by identity,
    for jobs that share objects (a sweep's measures, settings and
    options): each shared object is canonicalized once.  It holds the
    objects it keys on, so an id is never reused while it lives, and
    must not outlive the jobs' current state — one batch, unmutated.
    """
    if not is_dataclass(job) or isinstance(job, type):
        raise UncacheableJobError(
            f"cannot fingerprint {type(job).__name__!r}: not a job dataclass"
        )
    cls = type(job)
    record: dict[str, Any] = {"__job__": f"{cls.__module__}.{cls.__qualname__}"}
    has_design = hasattr(job, "netlist") or hasattr(job, "circuit")
    for spec in fields(job):
        name = spec.name
        if has_design and name in _DESIGN_FIELDS:
            continue
        value = getattr(job, name)
        if value is None or type(value) in _PLAIN:
            record[name] = value  # its own canonical form
        elif is_dataclass(value) and hasattr(value, "run"):
            record[name] = canonical_job(value, shared)
        elif shared is None:
            record[name] = canonical_value(value)
        else:
            entry = shared.get(id(value))
            if entry is None:
                entry = shared[id(value)] = (value, canonical_value(value))
            record[name] = entry[1]
    if has_design:
        record["design"] = _canonical_design(job)
    return record


def job_key(job, *, seed: Any = None, extra: Any = None,
            shared: dict | None = None) -> str:
    """Content address of *job*: a 64-hex-digit SHA-256 fingerprint.

    Parameters
    ----------
    job:
        A runtime job dataclass (or sweep point/batch wrapper).
    seed:
        The RNG seed material the runner will hand the job — an int,
        or a mapping describing a ``SeedSequence`` spawn position.
        Part of the address: the determinism guarantee is per
        ``(spec, seed)`` pair.
    extra:
        Additional salt (e.g. a measure list for sweep reductions).
    shared:
        Identity memo of field values shared between the jobs of one
        batch (see :func:`canonical_job`); the key does not depend on
        it.

    Raises
    ------
    UncacheableJobError
        When the job carries objects that cannot be canonicalized.
    """
    import repro

    envelope = {
        "fingerprint_schema": FINGERPRINT_SCHEMA,
        "repro": repro.__version__,
        "job": canonical_job(job, shared),
        "seed": canonical_value(seed),
        "extra": canonical_value(extra),
    }
    encoded = json.dumps(
        envelope,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=True,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
