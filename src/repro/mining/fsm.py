"""Per-episode finite state machines (paper Fig. 3).

:func:`build_transition_table` materializes the automaton as a dense
``(L+1, N)`` table — state x next-character -> state — under any
matching policy; :class:`EpisodeFSM` steps it character by character,
counting completions.  The scalar FSM is the semantic ground truth the
vectorized counters and the GPU kernels are property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy, validate_window


def build_transition_table(
    episode: Episode, alphabet_size: int, policy: MatchPolicy
) -> np.ndarray:
    """Dense transition table T[s, c] -> s' for states 0..L.

    State ``s`` means the first ``s`` items are matched; reaching state
    ``L`` signals a completed occurrence (the FSM immediately re-enters
    from the start state on the next character, Fig. 3's reset arc).
    The table folds that completion reset in: the caller counts an
    occurrence whenever a step *returns* L, then treats the row ``L`` as
    equivalent to row 0 on the next step.
    """
    if policy is MatchPolicy.EXPIRING:
        raise ValidationError(
            "EXPIRING cannot be expressed as a character-only table; "
            "use EpisodeFSM with a window instead"
        )
    if any(i >= alphabet_size for i in episode.items):
        raise ValidationError(
            f"episode {episode} exceeds alphabet of size {alphabet_size}"
        )
    length = episode.length
    table = np.zeros((length + 1, alphabet_size), dtype=np.int64)
    for s in range(length + 1):
        base = 0 if s == length else s  # completed state behaves like start
        for c in range(alphabet_size):
            if c == episode.items[base]:
                table[s, c] = base + 1
            elif policy is MatchPolicy.SUBSEQUENCE:
                table[s, c] = base  # self-loop: wait for the needed item
            elif c == episode.items[0]:
                table[s, c] = 1  # RESET: restart a partial match at a1
            else:
                table[s, c] = 0  # RESET: back to start
    return table


@dataclass
class EpisodeFSM:
    """Stateful matcher for one episode.

    Supports every policy, including ``EXPIRING`` which needs timestamps
    (here: character indices) in addition to symbols.  Regime:
    verification only — the ``scalar-oracle`` engine
    (:func:`~repro.mining.counting.count_batch_reference`) and the GPU
    kernel tests count with it; no production path steps it.
    """

    episode: Episode
    alphabet_size: int
    policy: MatchPolicy = MatchPolicy.RESET
    window: int | None = None
    state: int = field(default=0, init=False)
    count: int = field(default=0, init=False)
    _last_advance: int = field(default=-1, init=False)

    def __post_init__(self) -> None:
        self._window = validate_window(self.policy, self.window)
        if any(i >= self.alphabet_size for i in self.episode.items):
            raise ValidationError(
                f"episode {self.episode} exceeds alphabet size {self.alphabet_size}"
            )

    def reset(self) -> None:
        self.state = 0
        self.count = 0
        self._last_advance = -1
        self._times = None

    def step(self, c: int, t: int | None = None) -> int:
        """Consume one character (with index ``t`` for EXPIRING)."""
        ep = self.episode.items
        length = len(ep)
        if self.policy is MatchPolicy.EXPIRING:
            # Per-state latest-timestamp tracking: prefix of length s was
            # last completed at _times[s].  Updating states high-to-low
            # lets a character extend an older prefix and simultaneously
            # re-anchor a fresher one — a single greedy anchor would miss
            # occurrences whose best start symbol arrives later.
            if t is None:
                raise ValidationError("EXPIRING FSM needs the character index")
            if not hasattr(self, "_times") or self._times is None:
                self._times = [-(10**18)] * (length + 1)
                self._times[0] = 0  # sentinel: empty prefix always alive
            times = self._times
            for s in range(length, 0, -1):
                if c != ep[s - 1]:
                    continue
                if s == 1 or t - times[s - 1] <= self._window:
                    times[s] = t
            if times[length] == t:
                self.count += 1
                for s in range(1, length + 1):
                    times[s] = -(10**18)  # non-overlap: consume partials
            self.state = max(
                (s for s in range(length + 1) if times[s] > -(10**17)), default=0
            )
            return self.state

        if c == ep[self.state]:
            self.state += 1
            if self.state == length:
                self.count += 1
                self.state = 0
        elif self.policy is MatchPolicy.SUBSEQUENCE:
            pass  # wait in place
        elif c == ep[0]:
            self.state = 1
        else:
            self.state = 0
        return self.state

    def run(self, db: np.ndarray) -> int:
        """Feed a whole database; returns the occurrence count."""
        for t, c in enumerate(np.asarray(db).ravel()):
            self.step(int(c), t)
        return self.count
