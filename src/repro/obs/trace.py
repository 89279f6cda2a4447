"""Span-based tracing on the simulation clock.

Every span is stamped with *simulated* time (``env.now``), not wall
clock: the tracer answers "where does simulated time go?" — the question
behind all of the paper's resource arguments (write IOPS bounds,
checkpoint interference, tiered recovery).

Three recording primitives:

* :meth:`Tracer.span` — context manager opening a span at entry and
  closing it at exit.  Works inside simulation generators: the ``with``
  body may ``yield`` arbitrarily, and entry/exit read ``env.now``, so
  the span covers the op's simulated duration.
* :meth:`Tracer.complete` — retroactive span with explicit start/end
  (used where the natural record point is completion time, e.g. a verb
  finishing on the fabric).
* :meth:`Tracer.instant` — a point event (fault injection, recovery
  milestones).

Spans carry a ``track`` — the conceptual thread they render on in a
Chrome-trace viewer (one per client, per NIC, per checkpoint stream,
per recovery).  Nested ``span()`` calls on the same track nest in the
viewer.

Spans also form a *causal graph*: every span gets a process-unique
``id``, and its ``parent`` is the innermost span still open on the same
track when it is recorded.  Because client ops are simulation
generators suspended while their verbs run, a verb recorded
retroactively via :meth:`Tracer.complete` on the client's track parents
to the op span that issued it — giving the chain client op → phase
(lock wait / CAS retry / degraded read) → verb that
:mod:`repro.obs.attr` walks for latency attribution.

The whole API is zero-cost when disabled: ``span()`` returns a shared
no-op context manager and the :func:`traced` decorator returns the
undecorated generator, so a disabled tracer adds one attribute check to
instrumented paths.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Instant", "Tracer", "NULL_SPAN", "traced"]


class Span:
    """One closed interval of simulated time on a track.

    ``id`` is unique within one tracer; ``parent`` is the id of the
    innermost enclosing span on the same track (None for roots).
    """

    __slots__ = ("name", "cat", "track", "start", "end", "args",
                 "id", "parent")

    def __init__(self, name: str, cat: str, track: str, start: float,
                 end: float = -1.0, args: Optional[Dict[str, Any]] = None,
                 id: int = -1, parent: Optional[int] = None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.args = args
        self.id = id
        self.parent = parent

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **kwargs) -> "Span":
        """Attach key/value annotations (retries, byte counts, ...)."""
        if self.args is None:
            self.args = {}
        self.args.update(kwargs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, track={self.track!r}, "
                f"[{self.start:.6f}, {self.end:.6f}])")


class Instant:
    """A point event on a track (fault markers, milestones)."""

    __slots__ = ("name", "cat", "track", "at", "args")

    def __init__(self, name: str, cat: str, track: str, at: float,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.cat = cat
        self.track = track
        self.at = at
        self.args = args


class _NullSpan:
    """Shared no-op stand-in returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **kwargs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _SpanCtx:
    """Context manager recording one live span."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push_open(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop_open(self.span)
        self.span.end = self._tracer.now()
        if exc_type is not None:
            self.span.set(error=exc_type.__name__)
        self._tracer._record(self.span)
        return False


class Tracer:
    """Collects spans and instants stamped with simulated time."""

    def __init__(self, env=None, enabled: bool = False):
        self._env = env
        self.enabled = enabled
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._next_id = 0
        #: Innermost-last stack of live spans per track; the top is the
        #: default parent for anything recorded on that track.
        self._open: Dict[str, List[Span]] = {}

    # -- wiring ----------------------------------------------------------

    def bind(self, env) -> None:
        """Attach (or re-attach) the simulation environment."""
        self._env = env

    def now(self) -> float:
        return self._env.now if self._env is not None else 0.0

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._open.clear()
        self._next_id = 0

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id = sid + 1
        return sid

    def _parent_on(self, track: str) -> Optional[int]:
        stack = self._open.get(track)
        return stack[-1].id if stack else None

    def _push_open(self, span: Span) -> None:
        self._open.setdefault(span.track, []).append(span)

    def _pop_open(self, span: Span) -> None:
        stack = self._open.get(span.track)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # defensive: out-of-order exit
            stack.remove(span)

    def span(self, name: str, cat: str = "", track: str = "main", **args):
        """Open a span; returns a context manager yielding the live span."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanCtx(self, Span(name, cat, track, self.now(),
                                   args=args or None, id=self._new_id(),
                                   parent=self._parent_on(track)))

    def complete(self, name: str, cat: str, track: str, start: float,
                 end: float, **args) -> Optional[Span]:
        """Record a span retroactively with explicit endpoints.

        The span parents to the innermost span currently *open* on its
        track — for verbs recorded at completion time on a client track
        that is exactly the op (or phase) generator suspended on them.
        """
        if not self.enabled:
            return None
        span = Span(name, cat, track, start, end, args=args or None,
                    id=self._new_id(), parent=self._parent_on(track))
        self._record(span)
        return span

    def instant(self, name: str, cat: str = "", track: str = "main",
                at: Optional[float] = None, **args) -> Optional[Instant]:
        """Record a point event (``at`` overrides the current sim time
        for retroactive markers)."""
        if not self.enabled:
            return None
        ev = Instant(name, cat, track, self.now() if at is None else at,
                     args=args or None)
        self.instants.append(ev)
        return ev

    def _record(self, span: Span) -> None:
        if span.end < span.start:
            span.end = span.start
        self.spans.append(span)

    # -- querying --------------------------------------------------------

    def tracks(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        for ev in self.instants:
            seen.setdefault(ev.track)
        return list(seen)

    def spans_by(self, cat: Optional[str] = None,
                 name: Optional[str] = None,
                 track: Optional[str] = None) -> List[Span]:
        out = []
        for span in self.spans:
            if cat is not None and span.cat != cat:
                continue
            if name is not None and span.name != name:
                continue
            if track is not None and span.track != track:
                continue
            out.append(span)
        return out

    def children_of(self) -> Dict[Optional[int], List[Span]]:
        """parent-id -> children map (roots under the ``None`` key)."""
        out: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.parent, []).append(span)
        return out


def traced(name: str, cat: str = "op", track: Optional[str] = None,
           obs_attr: str = "obs") -> Callable:
    """Decorator tracing a simulation *generator method*.

    The wrapped method's ``self`` must expose an observability handle at
    ``obs_attr`` (``None`` or disabled → the original generator runs with
    no wrapping at all).  ``track`` defaults to the object's ``_track``
    attribute, falling back to the class name.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            obs = getattr(self, obs_attr, None)
            if obs is None or not obs.enabled:
                return fn(self, *args, **kwargs)
            tracer = obs.tracer
            span_track = track or getattr(self, "_track",
                                          type(self).__name__)

            def run():
                with tracer.span(name, cat=cat, track=span_track):
                    result = yield from fn(self, *args, **kwargs)
                    return result

            return run()

        return wrapper

    return decorate
