"""Gating simulator: per-iteration expert-selection token counts.

For every MoE layer the simulator keeps an *effective popularity* state
that relaxes toward the current scenario-mixture popularity — so a fixed
scenario stabilises after a warm-up (Fig. 12) while a drifting mixture
keeps moving.  Token-to-expert assignment draws a multinomial over that
popularity, the standard aggregate approximation of top-k routing (each of
``tokens * top_k`` selection slots lands independently).
"""

import numpy as np

from repro.models.configs import MoEModelConfig
from repro.workload import sampling
from repro.workload.mixers import ConstantMixer, ScenarioMixer
from repro.workload.scenarios import ScenarioProfile


class GatingSimulator:
    """Generates (layers x groups x experts) token-count tensors.

    Args:
        model: MoE model configuration.
        num_groups: DP groups (each contributes ``tokens_per_group`` tokens).
        tokens_per_group: tokens processed per group per iteration.
        mixer: scenario composition over time; a single
            :class:`ScenarioProfile` is promoted to a constant mixer.
        num_layers: simulated MoE layers (statistics for the Eq. 2 trigger).
        adaptation: per-iteration relaxation rate toward the target
            popularity; smaller = longer warm-up.
        seed: RNG seed.
        balanced: force uniform popularity (the balanced-gating ablation of
            Sec. VI-B).
        group_split: how :meth:`next_group_counts` resolves layer totals
            into DP groups for layers past the first — ``"multinomial"``
            (default, the exact integer split under the flat
            selection-slot model) or ``"gaussian"`` (a covariance-matched
            CLT approximation; float counts, kept as the pinned oracle of
            the pre-kernel default).
        sampler: which multinomial-split implementation backs
            ``group_split="multinomial"`` — ``"batched"`` (default, the
            :mod:`repro.workload.sampling` thinning-tree kernels) or
            ``"legacy"`` (the scalar ``Generator.binomial`` thinning
            chain, bit-identical to the pre-kernel RNG stream).
        sampling_backend: kernel backend for ``sampler="batched"`` —
            ``"numpy"``, ``"numba"``, or ``None`` (auto-detect, numba
            preferred when importable).
    """

    GROUP_SPLITS = ("gaussian", "multinomial")
    SAMPLERS = ("batched", "legacy")

    def __init__(
        self,
        model: MoEModelConfig,
        num_groups: int,
        tokens_per_group: int,
        mixer: ScenarioMixer | ScenarioProfile,
        num_layers: int = 4,
        adaptation: float = 0.08,
        seed: int = 0,
        balanced: bool = False,
        group_split: str = "multinomial",
        sampler: str = "batched",
        sampling_backend: str | None = None,
    ) -> None:
        if num_groups <= 0 or tokens_per_group <= 0:
            raise ValueError("num_groups and tokens_per_group must be positive")
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        if not (0.0 < adaptation <= 1.0):
            raise ValueError(f"adaptation must be in (0, 1], got {adaptation}")
        if group_split not in self.GROUP_SPLITS:
            raise ValueError(
                f"group_split must be one of {self.GROUP_SPLITS}, "
                f"got {group_split!r}"
            )
        if sampler not in self.SAMPLERS:
            raise ValueError(
                f"sampler must be one of {self.SAMPLERS}, got {sampler!r}"
            )
        if isinstance(mixer, ScenarioProfile):
            mixer = ConstantMixer([mixer])
        self.model = model
        self.num_groups = num_groups
        self.tokens_per_group = tokens_per_group
        self.mixer = mixer
        self.num_layers = num_layers
        self.adaptation = adaptation
        self.balanced = balanced
        self.group_split = group_split
        self.sampler = sampler
        #: Resolved at construction so a bad/unavailable backend fails
        #: loudly here, not mid-trace.
        self.sampling_backend = sampling.resolve_backend(sampling_backend)
        self._rng = np.random.default_rng(seed)
        self._iteration = 0
        # Warm start far from the stationary profile: uniform popularity.
        self._state = np.full(
            (num_layers, model.num_experts), 1.0 / model.num_experts
        )
        self._balanced_popularity = np.full(
            (num_layers, model.num_experts), 1.0 / model.num_experts
        )

    @property
    def iteration(self) -> int:
        return self._iteration

    def _advance_popularity(self) -> np.ndarray:
        """Relax the per-layer popularity state one step; return (L, E)."""
        if self.balanced:
            return self._balanced_popularity
        # One batched mixer query: the mixer advances any per-layer state
        # (AR(1) noise) exactly as layer-sequential popularity() calls
        # would, and the profile mixing is a single einsum.
        targets = self.mixer.popularity_matrix(
            self.model.num_experts, self.num_layers, self._iteration
        )
        self._state = (
            (1.0 - self.adaptation) * self._state + self.adaptation * targets
        )
        return self._state

    def _resolve_selections(self, tokens_per_group: int | None) -> int:
        """Expert-selection slots per group for this iteration.

        ``None`` (the closed-loop default) keeps the constructor's
        ``tokens_per_group`` — bit-identical draws.  The serving front end
        passes the continuous-batching batch size instead, making demand
        scale with the requests actually in flight.
        """
        if tokens_per_group is None:
            tokens_per_group = self.tokens_per_group
        elif tokens_per_group <= 0:
            raise ValueError("tokens_per_group must be positive")
        return tokens_per_group * self.model.experts_per_token

    def next_counts(self, tokens_per_group: int | None = None) -> np.ndarray:
        """Advance one iteration; return (layers, groups, experts) counts.

        The popularity-state relaxation and mixer queries run as batched
        ops over all layers; the multinomial draw is one broadcast call
        whose batch dimensions consume the RNG stream in exactly the
        per-(layer, group) order of the original nested loop — traces are
        bit-identical to the seed implementation.
        """
        model = self.model
        selections = self._resolve_selections(tokens_per_group)
        popularity = self._advance_popularity()
        counts = self._rng.multinomial(
            selections,
            popularity[:, None, :],
            size=(self.num_layers, self.num_groups),
        ).astype(float)
        self._iteration += 1
        return counts

    def next_loads(
        self, tokens_per_group: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one iteration; return (layer-0 group counts, layer totals).

        The broadcast-demand serving loop resolves individual DP groups
        only on layer 0 (whose demand rows price every layer's
        all-to-all); every other layer consumes per-expert totals.
        Summing ``num_groups`` iid multinomials equals one multinomial
        with ``num_groups * selections`` trials, so layers past the first
        draw ``experts`` binomials instead of ``groups x experts`` — the
        layer-total distribution is exactly the seed's, at
        ~``num_groups``x fewer RNG draws.  The stream differs from
        :meth:`next_counts` (fewer values consumed), so a given seed yields
        a different — equally distributed — trace realization.
        """
        model = self.model
        selections = self._resolve_selections(tokens_per_group)
        popularity = self._advance_popularity()
        counts0 = self._rng.multinomial(
            selections, popularity[0], size=self.num_groups
        ).astype(float)
        loads = np.empty((self.num_layers, model.num_experts))
        loads[0] = counts0.sum(axis=0)
        if self.num_layers > 1:
            loads[1:] = self._rng.multinomial(
                self.num_groups * selections,
                popularity[1:, None, :],
                size=(self.num_layers - 1, 1),
            )[:, 0, :]
        self._iteration += 1
        return counts0, loads

    def next_group_counts(
        self,
        return_loads: bool = False,
        out: np.ndarray | None = None,
        tokens_per_group: int | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Advance one iteration; return (layers, groups, experts) demand.

        With ``return_loads`` the (layers, experts) per-expert totals ride
        along as a second array, sparing the serving loop one reduction
        over the full demand tensor: the multinomial split preserves the
        drawn layer totals bit-exactly, so they *are* the group sum (the
        gaussian oracle's rescaled floats are not, and fall back to
        summing).  ``out``, when given, receives the demand tensor in
        place (every cell is overwritten) and is returned — the serving
        loop recycles one buffer instead of faulting in ~1 MB per
        iteration.

        The demand-resolved serving path: every layer gets its *own*
        group-resolved counts, so per-layer demand skew reaches the
        all-to-all pricer instead of broadcasting layer 0's rows.  Drawing
        ``layers x groups x experts`` independent multinomial cells would
        multiply the serving loop's RNG floor by ~``layers`` (numpy's
        per-binomial cost dominates, not the trial count), so the draw is
        hierarchical and stays on the cheap large-``n`` path:

        1. Layer 0 keeps the exactly-resolved integer counts of
           :meth:`next_loads`, and layers past the first draw the same
           layer-total multinomials — the first two RNG consumptions are
           bit-identical to :meth:`next_loads`, so layer totals match it
           exactly in distribution.
        2. Each later layer's totals are resolved into DP groups under the
           *flat selection-slot* model — all ``groups x selections`` slots
           of a layer land independently, so a group's total fluctuates as
           ``Binomial(groups * selections, 1/groups)`` around
           ``selections`` instead of being pinned to it.  The split
           preserves layer totals exactly and is drawn either as the
           exact integer law (``group_split="multinomial"``, the
           default — a :func:`repro.workload.sampling.multinomial_split`
           binary thinning tree, or the legacy scalar thinning chain
           under ``sampler="legacy"``) or as its covariance-matched CLT
           form (``"gaussian"``: bulk normals centered on
           ``total/groups`` with the multinomial split's variance and
           negative cross-group correlation, clipped at zero and
           rescaled — float demand, the pinned pre-kernel oracle).

        The layer-total multinomials stay on ``Generator.multinomial``
        deliberately: numpy's single batched C call is already exact *and*
        faster than a kernel tree at that shape, and keeping it preserves
        the :meth:`next_loads` RNG stream bit-for-bit — only the split
        consumes differently across samplers.

        The stream consumes :meth:`next_loads`'s draws first and the split
        draws after, so a given seed yields yet another — equally
        distributed in totals — trace realization.  Oracles
        :meth:`next_counts` / :meth:`next_loads` are untouched.
        """
        model = self.model
        num_groups = self.num_groups
        selections = self._resolve_selections(tokens_per_group)
        popularity = self._advance_popularity()
        counts0 = self._rng.multinomial(
            selections, popularity[0], size=num_groups
        ).astype(float)
        shape = (self.num_layers, num_groups, model.num_experts)
        if out is None:
            counts = np.empty(shape)
        else:
            if out.shape != shape or out.dtype != np.float64:
                raise ValueError(
                    f"out must be float64 with shape {shape}, got "
                    f"{out.dtype} {out.shape}"
                )
            counts = out
        counts[0] = counts0
        totals = None
        if self.num_layers > 1:
            totals = self._rng.multinomial(
                num_groups * selections,
                popularity[1:, None, :],
                size=(self.num_layers - 1, 1),
            )[:, 0, :]
            self._split_groups(totals, out=counts[1:])
        self._iteration += 1
        if not return_loads:
            return counts
        loads = np.empty((self.num_layers, model.num_experts))
        loads[0] = counts0.sum(axis=0)
        if totals is not None:
            if self.group_split == "multinomial":
                loads[1:] = totals
            else:
                loads[1:] = counts[1:].sum(axis=1)
        return counts, loads

    def _split_groups(
        self, totals: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Resolve (layers, experts) totals into (layers, groups, experts).

        Both modes preserve each (layer, expert) total exactly and model
        the flat selection-slot split ``Multinomial(total, 1/groups)``.
        ``out``, when given, receives the split (and is returned).
        """
        num_groups = self.num_groups
        if self.group_split == "multinomial":
            if self.sampler == "batched":
                # Binary thinning tree over batched Binomial(n, 1/2) /
                # BTRS kernels — same exact law as the legacy chain
                # (group slots are exchangeable), different bit-stream.
                return sampling.multinomial_split(
                    self._rng,
                    totals,
                    num_groups,
                    axis=1,
                    backend=self.sampling_backend,
                    out=out,
                )
            # Legacy sequential binomial thinning: group g takes
            # Binomial(rest, 1/(G-g)) of the remaining slots — the exact
            # chain factorization of the uniform multinomial split,
            # vectorized over every (layer, expert) cell per step but
            # paying numpy's ~100 ns scalar floor per cell draw.
            split = np.empty(totals.shape[:1] + (num_groups,) + totals.shape[1:])
            remaining = totals.astype(np.int64)
            for group in range(num_groups - 1):
                taken = self._rng.binomial(remaining, 1.0 / (num_groups - group))
                split[:, group, :] = taken
                remaining -= taken
            split[:, num_groups - 1, :] = remaining
            if out is not None:
                out[...] = split
                return out
            return split
        # Gaussian split: total/G + sqrt(total/G) * (Z - mean_g(Z)) has the
        # multinomial split's mean, variance (total/G)(1 - 1/G) and
        # cross-group covariance -total/G^2, and sums to the total exactly.
        # Clipping negatives (rare unless per-cell means are tiny) loses a
        # little variance; rescaling restores the exact totals.
        noise = self._rng.standard_normal(
            totals.shape[:1] + (num_groups,) + totals.shape[1:]
        )
        noise -= noise.mean(axis=1, keepdims=True)
        base = totals[:, None, :] / num_groups
        split = base + np.sqrt(base) * noise
        np.maximum(split, 0.0, out=split)
        sums = split.sum(axis=1, keepdims=True)
        np.divide(totals[:, None, :], sums, out=sums, where=sums > 0)
        split *= sums
        if out is not None:
            out[...] = split
            return out
        return split

    def expert_loads(self, counts: np.ndarray) -> np.ndarray:
        """Sum counts over groups: (layers, experts) total expert loads."""
        return counts.sum(axis=1)
