"""One way to build a wired simulation stack.

Historically every consumer — the experiment runner, the test suite, the
benchmarks — hand-assembled its own ``Environment`` + ``Network`` +
``Registry`` + ``RngStreams`` + ``SatinRuntime`` with slightly different
kwargs, so construction drift was a recurring source of "works in tests,
differs in experiments" bugs. :meth:`Harness.build` is the single
constructor they all share; the bundle keeps every layer reachable for
inspection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

from .config import RunConfig
from .obs import Observability
from .registry.registry import Registry
from .satin.malleability import HandoffStrategy
from .satin.runtime import SatinRuntime
from .satin.stealing import StealPolicy
from .satin.worker import WorkerConfig
from .simgrid.engine import Environment
from .simgrid.network import Network
from .simgrid.resources import ClusterSpec, GridSpec, NodeSpec
from .simgrid.rng import RngStreams
from .simgrid.trace import Trace

__all__ = ["Harness", "build_grid"]


def build_grid(
    cluster_sizes: tuple[int, ...] | list[int],
    speeds: Optional[dict[int, float]] = None,
    **link_kw,
) -> GridSpec:
    """GridSpec with clusters ``c0, c1, ...`` of the given sizes.

    ``speeds`` optionally maps cluster index → node speed (default 1.0);
    extra keyword arguments go to every :class:`ClusterSpec` (link
    bandwidth/latency overrides). For full control build the
    :class:`GridSpec` directly.
    """
    speeds = speeds or {}
    clusters = []
    for ci, size in enumerate(cluster_sizes):
        name = f"c{ci}"
        nodes = tuple(
            NodeSpec(f"{name}/n{i}", name, base_speed=speeds.get(ci, 1.0))
            for i in range(size)
        )
        clusters.append(ClusterSpec(name=name, nodes=nodes, **link_kw))
    return GridSpec(clusters=tuple(clusters))


@dataclass
class Harness:
    """Everything a wired simulation needs, one object per run."""

    env: Environment
    grid: GridSpec
    network: Network
    registry: Registry
    runtime: SatinRuntime
    rng: RngStreams
    obs: Observability
    #: the resolved configuration this stack was built from.
    run_config: Optional[RunConfig] = None

    @property
    def trace(self) -> Trace:
        return self.runtime.trace

    def all_node_names(self) -> list[str]:
        return [n.name for n in self.grid.iter_nodes()]

    def capture_engine_metrics(self) -> None:
        """Snapshot the engine's event-loop stats into the metrics registry."""
        self.obs.capture_engine(self.env)

    @classmethod
    def build(
        cls,
        spec: GridSpec,
        seed: int = 0,
        *,
        config: Optional[Union[RunConfig, WorkerConfig]] = None,
        policy: Optional[StealPolicy] = None,
        handoff: Optional[HandoffStrategy] = None,
        detection_delay: Optional[float] = None,
        trace: Optional[Trace] = None,
        obs: Optional[Observability] = None,
        profile: Optional[bool] = None,
    ) -> "Harness":
        """Assemble a fresh, fully wired stack for ``spec``.

        Deterministic given ``seed``; no nodes are added — callers drive
        membership (``runtime.add_nodes``) themselves. How the stack is
        wired comes from one :class:`~repro.config.RunConfig`::

            Harness.build(spec, seed=1, config=RunConfig(profile=True))

        ``seed`` stays a direct parameter: it identifies the run, not the
        wiring, so seed sweeps share one config object.

        The remaining keywords are the legacy loose surface, kept working
        for one release: passing any of them (or a ``WorkerConfig`` as
        ``config``) emits a :class:`DeprecationWarning` and is folded into
        an equivalent ``RunConfig``. Mixing a ``RunConfig`` with loose
        keywords is an error.
        """
        run = _resolve_run_config(
            config,
            policy=policy,
            handoff=handoff,
            detection_delay=detection_delay,
            trace=trace,
            obs=obs,
            profile=profile,
        )
        env = Environment()
        network = Network(env, spec)
        registry = Registry(
            env,
            detection_delay=(
                run.detection_delay if run.detection_delay is not None else 1.0
            ),
        )
        rng = RngStreams(seed)
        obs_stack = run.obs
        if obs_stack is None:
            if run.profile:
                obs_stack = Observability.profiling()
            elif run.sinks:
                # streaming export needs a live bus
                obs_stack = Observability.enabled()
            else:
                obs_stack = Observability.disabled()
        for sink in run.sinks:
            obs_stack.bus.subscribe(sink.write)
        if obs_stack.attribution.enabled:
            obs_stack.attribution.watch(env)
        runtime = SatinRuntime(
            env=env,
            network=network,
            registry=registry,
            config=run.worker if run.worker is not None else WorkerConfig(),
            rng=rng,
            trace=run.trace,
            policy=run.steal,
            handoff=run.handoff,
            obs=obs_stack,
        )
        return cls(env, spec, network, registry, runtime, rng, obs_stack, run)


#: legacy ``Harness.build`` keyword → the ``RunConfig`` field it folds into.
_LEGACY_FIELDS = {
    "policy": "steal",
    "handoff": "handoff",
    "detection_delay": "detection_delay",
    "trace": "trace",
    "obs": "obs",
    "profile": "profile",
}


def _resolve_run_config(
    config: Optional[Union[RunConfig, WorkerConfig]], **legacy
) -> RunConfig:
    """Fold the deprecated loose-keyword surface into one RunConfig."""
    loose = {k: v for k, v in legacy.items() if v is not None}
    if isinstance(config, RunConfig):
        if loose:
            raise TypeError(
                "pass these settings inside RunConfig, not as loose "
                f"keywords: {', '.join(sorted(loose))}"
            )
        return config
    if isinstance(config, WorkerConfig):
        warnings.warn(
            "passing a WorkerConfig as Harness.build(config=...) is "
            "deprecated; use config=RunConfig(worker=...)",
            DeprecationWarning,
            stacklevel=3,
        )
        run = RunConfig(worker=config)
    elif config is None:
        run = RunConfig()
    else:
        raise TypeError(
            f"config must be a RunConfig (or a deprecated WorkerConfig), "
            f"got {type(config).__name__}"
        )
    if loose:
        warnings.warn(
            "loose Harness.build keywords "
            f"({', '.join(sorted(loose))}) are deprecated; pass a "
            "RunConfig instead (the 'policy' keyword maps to "
            "RunConfig.steal)",
            DeprecationWarning,
            stacklevel=3,
        )
        run = run.merged(**{_LEGACY_FIELDS[k]: v for k, v in loose.items()})
    return run
