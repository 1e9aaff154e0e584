"""Factory registry for demultiplexing algorithms.

Experiments, the CLI, and the simulation harness construct algorithms
by name so that a sweep over {bsd, mtf, sendrecv, sequent, ...} is a
loop over strings.  Parameterized variants encode their parameters in
the spec string: ``"sequent:h=51,hash=crc16"``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from ..fastpath.cuckoo import FastCuckooDemux
from ..hashing.functions import HASH_FUNCTIONS, get_hash_function
from .base import DemuxAlgorithm
from .bsd import BSDDemux
from .connection_id import ConnectionIdDemux
from .hashed_mtf import HashedMTFDemux
from .linear import LinearDemux
from .mtf import MoveToFrontDemux
from .multicache import MultiCacheDemux
from .sendrecv import SendRecvDemux
from .sequent import SequentDemux

__all__ = [
    "ACCEPTED_OPTIONS",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
]

AlgorithmFactory = Callable[..., DemuxAlgorithm]

ALGORITHMS: Dict[str, AlgorithmFactory] = {
    "linear": LinearDemux,
    "bsd": BSDDemux,
    "mtf": MoveToFrontDemux,
    "multicache": MultiCacheDemux,
    "sendrecv": SendRecvDemux,
    "sequent": SequentDemux,
    "hashed_mtf": HashedMTFDemux,
    "connection_id": ConnectionIdDemux,
    "cuckoo": FastCuckooDemux,
}

#: Spec options each algorithm accepts.  Unknown options raise a
#: ``ValueError`` naming both the offender and this list -- a silently
#: ignored typo (``sequent:chains=51``) would run the wrong experiment.
ACCEPTED_OPTIONS: Dict[str, tuple] = {
    "linear": (),
    "bsd": (),
    "mtf": (),
    "multicache": ("k",),
    "sendrecv": (),
    "sequent": ("h", "hash", "overload"),
    "hashed_mtf": ("h", "hash", "cache"),
    "connection_id": ("max",),
    "cuckoo": ("buckets", "slots", "stash", "kick"),
}

#: The accepted spellings of a boolean option value.
_FLAGS = {"1": True, "yes": True, "true": True,
          "0": False, "no": False, "false": False}


def _flag(text: str) -> bool:
    return _FLAGS[text.lower()]


#: How each option's text becomes a constructor keyword:
#: ``option -> (keyword, parser, what the parser accepts)``.  A parser
#: failure is re-raised as a ``ValueError`` naming the option -- a typo
#: in a value (``cache=flase``) must fail as loudly as one in a name.
_OPTIONS: Dict[str, tuple] = {
    "h": ("nchains", int, "an integer"),
    "hash": (
        "hash_function",
        get_hash_function,
        "a hash function; known: " + ", ".join(sorted(HASH_FUNCTIONS)),
    ),
    "overload": ("overload_threshold", int, "an integer"),
    "cache": ("per_chain_cache", _flag, "one of " + ", ".join(_FLAGS)),
    "max": ("max_connections", int, "an integer"),
    "k": ("cache_size", int, "an integer"),
    "buckets": ("buckets", int, "an integer"),
    "slots": ("slots", int, "an integer"),
    "stash": ("stash", int, "an integer"),
    "kick": ("kick", int, "an integer"),
}


def available_algorithms() -> Iterable[str]:
    """Registered algorithm names, sorted."""
    return sorted(ALGORITHMS)


def _parse_params(text: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed parameter {part!r} (expected key=value)")
        key, _, value = part.partition("=")
        params[key.strip()] = value.strip()
    return params


def _option_value(spelled: str, option: str, text: str, parse, what: str):
    """``parse(text)``, or a ``ValueError`` naming the option."""
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ValueError(
            f"bad value {text!r} for option {option!r} of {spelled!r};"
            f" expected {what}"
        ) from None


def make_algorithm(spec: str) -> DemuxAlgorithm:
    """Build an algorithm from a spec string.

    Examples::

        make_algorithm("bsd")
        make_algorithm("sequent:h=51")
        make_algorithm("sequent:h=19,hash=xor_fold")
        make_algorithm("hashed_mtf:h=19,cache=no")
        make_algorithm("multicache:k=16")
        make_algorithm("cuckoo:buckets=64,slots=4,stash=8")
        make_algorithm("sharded-sequent:shards=8,steer=hash,h=19")

    A ``sharded-`` prefix wraps any registered algorithm in a
    :class:`repro.smp.ShardedDemux` of ``shards`` instances (default
    8) behind a ``steer`` policy (``hash``, ``rr``, ``sticky``;
    default ``hash``); remaining parameters go to the inner algorithm.
    Existing CLI paths (``compare``, ``simulate``, ``fault-matrix``)
    exercise sharded variants with no new plumbing.

    A ``fast-`` prefix is a spelling alias: ``fast-sequent:h=19`` builds
    exactly what ``sequent:h=19`` builds (specs, captures and
    trajectory keys written that way keep resolving).  It composes:
    ``sharded-fast-sequent:shards=8``.

    The caller's spec is stamped verbatim on the instance as ``spec``.
    Raises ``ValueError`` for unknown names, unknown parameters, and
    parameter values the option does not accept; each parameter error
    names the offending option and what it accepts.
    """
    name, _, param_text = spec.partition(":")
    name = name.strip().lower()
    if name.startswith("sharded-"):
        algorithm = _make_sharded(name[len("sharded-"):], param_text)
    else:
        algorithm = _construct(name, _parse_params(param_text))
    # Stamp the spec so checkpoint/restore (repro.recovery) can rebuild
    # an equivalent instance without the caller re-threading the string.
    algorithm.spec = spec.strip()
    return algorithm


def _construct(spelled: str, params: Dict[str, str]) -> DemuxAlgorithm:
    """Build the algorithm ``spelled`` names, applying ``params``.

    Errors quote ``spelled`` as the caller wrote it (``fast-sequent``
    stays ``fast-sequent``); the registry entry is the same either way.
    """
    name = spelled[len("fast-"):] if spelled.startswith("fast-") else spelled
    if name not in ALGORITHMS:
        known = ", ".join(available_algorithms())
        raise ValueError(
            f"unknown algorithm {spelled!r}; known: {known}"
            f" (plus 'fast-' and 'sharded-' prefixed spellings)"
        )
    accepted = ACCEPTED_OPTIONS.get(name, ())
    unknown = sorted(option for option in params if option not in accepted)
    if unknown:
        accepted_text = ", ".join(accepted) if accepted else "none"
        raise ValueError(
            f"unknown parameter(s) for {spelled!r}: {', '.join(unknown)};"
            f" {spelled!r} accepts: {accepted_text}"
        )
    kwargs = {}
    for option, text in params.items():
        keyword, parse, what = _OPTIONS[option]
        kwargs[keyword] = _option_value(spelled, option, text, parse, what)
    return ALGORITHMS[name](**kwargs)


def _make_sharded(inner_name: str, param_text: str) -> DemuxAlgorithm:
    """Build ``sharded-<algo>``: pop shards/steer, forward the rest.

    Imported lazily: ``repro.smp`` sits above ``repro.core`` in the
    layering (it imports the base classes from here), so a module-level
    import would be circular.
    """
    from ..smp.sharded import ShardedDemux
    from ..smp.steering import make_steering

    spelled = f"sharded-{inner_name}"
    params = _parse_params(param_text)
    nshards = _option_value(
        spelled, "shards", params.pop("shards", "8"), int, "an integer"
    )
    try:
        steering = make_steering(params.pop("steer", "hash"))
    except KeyError as exc:  # steer=hash=<unknown function>
        raise ValueError(f"option 'steer' of {spelled!r}: {exc.args[0]}") from None
    inner_params = ",".join(f"{key}={value}" for key, value in params.items())
    inner_spec = f"{inner_name}:{inner_params}" if inner_params else inner_name
    # Build one inner instance eagerly so a bad inner spec fails here,
    # not from inside the shard factory.
    make_algorithm(inner_spec)
    return ShardedDemux(
        lambda: make_algorithm(inner_spec),
        nshards,
        steering,
        inner_spec=inner_spec,
    )
