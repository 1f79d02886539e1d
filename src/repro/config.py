"""The one configuration surface for building and running simulations.

Historically every entry point grew its own keyword surface —
``Harness.build`` took ``config=``/``policy=``/``obs=``/``profile=``
loose kwargs, ``run_scenario`` took a different subset,
and the profiler a third — so adding a knob meant threading it through
three signatures and the façade drifted. :class:`RunConfig` replaces the
scattered keywords: one frozen dataclass accepted (as ``config=``) by
:meth:`repro.harness.Harness.build`,
:func:`repro.experiments.runner.run_scenario`,
:func:`repro.experiments.runner.run_scenarios_parallel` and
:func:`repro.experiments.profiler.profile_scenario`.

What deliberately stays *out* of ``RunConfig``: the ``seed`` and the
scenario ``variant``. Those identify *which run* is being performed, not
*how the stack is wired* — sweeping seeds or variants with one shared
config is the common case.

The legacy loose keywords keep working for one release behind
``DeprecationWarning`` shims (see the respective call sites); the in-repo
test suite runs with ``-W error::DeprecationWarning`` so internal callers
cannot regress onto them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Optional

__all__ = [
    "RunConfig",
    "canonical_data",
    "canonical_json",
]


def canonical_data(obj: Any) -> Any:
    """A process-stable, JSON-able form of ``obj`` for cache keying.

    The serving layer's content-addressed result cache
    (:mod:`repro.serving.cache`) keys entries on the *content* of the
    inputs — scenario spec, seed, :class:`RunConfig` — so two processes
    (or two days) that ask the same question must derive the same key.
    ``pickle`` bytes are not that: set iteration order depends on the
    per-process string hash seed. This encoder is:

    * **total** — every value a :class:`RunConfig` or
      :class:`~repro.experiments.scenarios.ScenarioSpec` can hold maps
      to something, falling back to the type's qualified name;
    * **stable across processes** — dicts are sorted by key, sets by
      their encoded form, functions encode as (module, qualname,
      bytecode digest, defaults, closure values) rather than identity;
    * **content-sensitive** — mutating any field, however nested,
      changes the output (pinned by ``tests/serving/test_cache_key.py``).

    Floats keep full precision through ``repr`` (what :mod:`json` uses),
    so distinct floats never collide.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, (list, tuple)):
        return [canonical_data(item) for item in obj]
    if isinstance(obj, dict):
        return {
            "__dict__": sorted(
                ([canonical_data(k), canonical_data(v)] for k, v in obj.items()),
                key=lambda kv: json.dumps(kv[0], sort_keys=True),
            )
        }
    if isinstance(obj, (set, frozenset)):
        return {
            "__set__": sorted(
                (canonical_data(item) for item in obj),
                key=lambda item: json.dumps(item, sort_keys=True),
            )
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": _type_name(type(obj)),
            "fields": [
                [f.name, canonical_data(getattr(obj, f.name))]
                for f in dataclasses.fields(obj)
            ],
        }
    code = getattr(obj, "__code__", None)
    if code is not None:  # function / lambda / bound method
        closure = getattr(obj, "__closure__", None) or ()
        return {
            "__function__": _type_name(obj),
            "code": hashlib.sha256(code.co_code).hexdigest(),
            "defaults": canonical_data(getattr(obj, "__defaults__", None)),
            "closure": [canonical_data(cell.cell_contents) for cell in closure],
        }
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return {"__array__": canonical_data(obj.tolist())}
    state = getattr(obj, "__dict__", None)
    if isinstance(state, dict) and state:
        # best effort for plain objects: public attribute contents
        return {
            "__object__": _type_name(type(obj)),
            "attrs": canonical_data(
                {k: v for k, v in state.items() if not k.startswith("_")}
            ),
        }
    return {"__type__": _type_name(type(obj))}


def _type_name(obj: Any) -> str:
    return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', obj)}"


def canonical_json(obj: Any) -> str:
    """``canonical_data`` rendered as compact, key-sorted JSON text."""
    return json.dumps(
        canonical_data(obj), sort_keys=True, separators=(",", ":")
    )


#: (id(obj), render) -> (weak reference to obj, render(obj) or None when
#: obj is not transitively immutable); see :func:`_memo_json`.
_JSON_MEMO: dict[
    tuple[int, Callable[[Any], str]], tuple[weakref.ref, Optional[str]]
] = {}

_ATOMS = (type(None), bool, int, float, str, bytes)


def _immutable(obj: Any) -> bool:
    """Whether nothing reachable through ``obj``'s canonical content can
    change: atoms, tuples / frozensets of immutables, and instances of
    frozen dataclasses (the class itself declared ``frozen=True``) whose
    fields are all immutable. Functions, lists, dicts, sets and plain
    objects are not."""
    kind = type(obj)
    if kind in _ATOMS:
        return True
    if kind is tuple or kind is frozenset:
        return all(_immutable(item) for item in obj)
    params = kind.__dict__.get("__dataclass_params__")
    if params is not None and params.frozen:
        return all(
            _immutable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return False


def _memo_json(obj: Any, render: Callable[[Any], str] = canonical_json) -> str:
    """``render(obj)``, remembered by ``obj``'s identity while it lives.

    The text is memoised only when ``obj`` is transitively immutable
    (:func:`_immutable`), so it cannot go stale; anything else is
    rendered afresh on every call. That verdict is itself remembered: the
    path from a frozen ``obj`` to its first mutable part cannot be rebound.
    An entry leaves the memo when its object dies, so long-running
    services do not accumulate dead specs, and the weak reference guards
    against a new object reusing a dead one's ``id``. Objects that do not
    take weak references are never memoised.
    """
    key = (id(obj), render)
    entry = _JSON_MEMO.get(key)
    if entry is not None and entry[0]() is obj:
        return entry[1] if entry[1] is not None else render(obj)
    text = render(obj)
    try:
        ref = weakref.ref(obj, lambda _, key=key: _JSON_MEMO.pop(key, None))
    except TypeError:
        return text
    _JSON_MEMO[key] = (ref, text if _immutable(obj) else None)
    return text


if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .obs import Observability
    from .satin.malleability import HandoffStrategy
    from .satin.stealing import StealPolicy
    from .satin.worker import WorkerConfig
    from .simgrid.trace import Trace


@dataclass(frozen=True)
class RunConfig:
    """How a simulation stack is wired and executed.

    Every field has a sensible default, so ``RunConfig()`` is the
    production configuration and call sites override only what they vary::

        run_scenario(spec, "adapt", seed=3,
                     config=RunConfig(detection_delay=5.0))

    ``RunConfig`` is picklable as long as its payload fields (``obs``,
    ``trace``, ``sinks`` …) are — required when ``run_scenarios_parallel``
    ships it to spawned worker processes.
    """

    #: enable the profiling telemetry tier (spans + attribution ledger)
    #: when no explicit ``obs`` is given.
    profile: bool = False
    #: process count for parallel multi-run entry points (<= 0: one per
    #: CPU; single runs ignore this).
    jobs: int = 1
    #: shard count for cluster-sharded substrate scenarios (``large_grid``):
    #: clusters are partitioned across ``shards`` processes exchanging
    #: inter-cluster traffic at conservative monitoring-period barriers.
    #: Seeded runs are byte-identical for any shard count. Classic
    #: scenarios (the work-stealing runs) only accept ``shards=1``.
    shards: int = 1
    #: per-worker runtime tunables (monitoring period, stats, benchmark).
    worker: Optional["WorkerConfig"] = None
    #: work-stealing victim selection policy.
    steal: Optional["StealPolicy"] = None
    #: malleability handoff strategy for departing workers.
    handoff: Optional["HandoffStrategy"] = None
    #: registry crash-detection delay in seconds (None: the context
    #: default — the scenario's value in ``run_scenario``, 1.0 in
    #: ``Harness.build``).
    detection_delay: Optional[float] = None
    #: explicit adaptation trace (None: the runtime creates one).
    trace: Optional["Trace"] = None
    #: explicit observability stack; overrides ``profile``.
    obs: Optional["Observability"] = None
    #: event sinks (e.g. ``JsonlSink``) subscribed to the run's bus for
    #: streaming export. Sinks imply an enabled bus: when no ``obs`` is
    #: given and ``profile`` is off, passing sinks turns telemetry on.
    sinks: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.detection_delay is not None and self.detection_delay < 0:
            raise ValueError("detection_delay must be >= 0")
        if not isinstance(self.jobs, int):
            raise ValueError("jobs must be an int")
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError("shards must be an int >= 1")
        object.__setattr__(self, "sinks", tuple(self.sinks))

    def cache_key_data(self) -> dict[str, Any]:
        """Canonical serialization of **every** field, for cache keying.

        The serving layer's result cache derives its content address
        from this (plus scenario, seed, and the code fingerprint), so
        the contract is: *any* two configs that could produce different
        observable runs — or different telemetry wiring — serialize
        differently, and the same config serializes identically in every
        process. Fields are enumerated via :func:`dataclasses.fields`,
        so a newly added knob participates automatically;
        ``tests/serving/test_cache_key.py`` asserts each field's
        participation by mutation.

        Payload objects without value semantics (``obs``, ``trace``,
        sinks) contribute their type and public attribute contents; a
        cache hit returns the stored summary without re-simulating, so
        per-run telemetry side effects only happen on misses (see
        ``docs/serving.md``).
        """
        return {
            f.name: canonical_data(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }

    def merged(self, **overrides: Any) -> "RunConfig":
        """A copy with the non-None ``overrides`` applied — how the
        deprecation shims fold legacy loose kwargs into a config."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self
