"""Named platform bundles — the cross-process factory registry.

Parallel campaign execution (``repro.core.executors``) fans
:class:`~repro.core.runspec.RunSpec` objects out to worker processes.
A worker cannot receive the platform *factory itself* (factories close
over modules, classifiers over lambdas — none of that pickles), so a
spec carries only a **platform key** and each worker resolves the key
against this registry, building its own private prototype instance.

A bundle names the three callables a campaign needs:

* ``factory(sim) -> Module`` — builds a fresh platform into *sim*;
* ``observe(root) -> RunObservation`` — probes it after a run;
* ``classifier_factory() -> Classifier`` — builds the outcome rules
  (a factory, not an instance, because classifiers hold lambdas and
  must be constructed on the consuming side).

An optional fourth callable, ``trace_signals(root) -> {name: signal}``,
nominates the kernel signals the observability layer
(:mod:`repro.observe`) watches when a campaign runs with ``trace=`` —
the platform knows which of its signals carry safety-relevant state;
the trace machinery should not have to guess.

How a platform's state is captured is not the bundle's business: a
worker elaborates the platform once, captures its module tree
(:meth:`~repro.kernel.Module.capture_state`, driven by each
component's ``STATE_FIELDS``) and the kernel right after the factory
returns, and restores that capture before every run (**warm reuse**);
runs sharing a fault-free prefix fork from a capture taken at its end
(**snapshot-fork**).  A platform holding a module whose class declares
no ``STATE_FIELDS``, or whose factory leaves a bare-generator process
alive, is elaborated anew for every run — correct by construction,
just slower.  The ``reset``, ``capture_state`` and
``restore_state`` hooks are still accepted and stored for older
callers, but nothing reads them.

Registration must happen at **module import time** so that worker
processes — which re-import the registering module under ``spawn``
start methods — see the same catalogue as the parent.  The built-in
automotive prototypes are registered by ``repro.platforms.__init__``.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..core.classification import Classifier, RunObservation
    from ..kernel import Module, Simulator


class PlatformBundle(_t.NamedTuple):
    """Everything a worker needs to rebuild and judge one platform."""

    name: str
    factory: "_t.Callable[[Simulator], Module]"
    observe: "_t.Callable[[Module], RunObservation]"
    classifier_factory: "_t.Callable[[], Classifier]"
    description: str = ""
    #: Optional ``root -> {name: signal}``; ``None`` = nothing watched.
    trace_signals: _t.Optional[_t.Callable] = None
    #: The next three are accepted and kept readable for older
    #: callers; nothing reads them.
    reset: _t.Optional[_t.Callable] = None
    capture_state: _t.Optional[_t.Callable] = None
    restore_state: _t.Optional[_t.Callable] = None
    #: Optional ``root -> {"detectors": {mechanism: [module]},
    #: "outputs": [module-or-signal]}`` declaring the platform's
    #: *observation surface* for static reachability analysis
    #: (:mod:`repro.analyze.reach`): the detector components beyond
    #: the auto-discovered ``DETECTION_MECHANISMS`` declarations, and
    #: every module/signal the ``observe`` probe or the classifier
    #: reads.  ``None`` = surface unknown — the analyzer then refuses
    #: to call any fault site dead, so pruning degrades to a no-op
    #: instead of silently skipping live injections.
    reach_surface: _t.Optional[_t.Callable] = None


_REGISTRY: _t.Dict[str, PlatformBundle] = {}

#: Per-process classifier cache: classifiers are stateless rule lists,
#: so one instance per (process, platform) serves every run.
_CLASSIFIERS: _t.Dict[str, "Classifier"] = {}


def register_platform(
    name: str,
    factory,
    observe,
    classifier_factory,
    description: str = "",
    trace_signals=None,
    reset=None,
    capture_state=None,
    restore_state=None,
    reach_surface=None,
    replace: bool = False,
) -> PlatformBundle:
    """Register a platform bundle under *name*.

    Re-registering an existing name requires ``replace=True`` — silent
    shadowing would make parent and worker processes disagree about
    what a key means.  *reset*, *capture_state* and *restore_state* are
    accepted and stored so older callers keep working, but ignored:
    the components' ``STATE_FIELDS`` decide warm reuse and fork.
    """
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"platform {name!r} is already registered; "
            f"pass replace=True to override"
        )
    bundle = PlatformBundle(
        name, factory, observe, classifier_factory, description,
        trace_signals, reset, capture_state, restore_state,
        reach_surface,
    )
    _REGISTRY[name] = bundle
    _CLASSIFIERS.pop(name, None)
    return bundle


def get_platform(name: str) -> PlatformBundle:
    """Resolve *name*; raises ``KeyError`` listing what is available."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY)) or '(none)'}"
        ) from None


def get_classifier(name: str):
    """The per-process cached classifier instance for *name*."""
    classifier = _CLASSIFIERS.get(name)
    if classifier is None:
        classifier = get_platform(name).classifier_factory()
        _CLASSIFIERS[name] = classifier
    return classifier


def available_platforms() -> _t.Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))
