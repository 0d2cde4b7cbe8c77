"""C²UCB contextual combinatorial bandit designer (ROADMAP item 4).

CliffGuard treats the nominal designer as a black box (paper Section 2),
which makes the designer registry a genuine *arena*: any strategy that
maps a workload window to a design under the storage budget can race the
BNT local search.  :class:`BanditDesigner` is the online-learning rival
from the two Perera et al. papers (PAPERS.md): "DBA bandits:
self-driving index tuning … with safety guarantees" and "No DBA? No
regret! Multi-armed bandits for index tuning of analytical and HTAP
workloads".

The model is a C²UCB-style contextual combinatorial linear bandit:

* **Arms** are candidate structures from the engine's existing candidate
  source (``nominal.generate_candidates``) — projections, indexes, or
  materialized views depending on the substrate.
* **Context features** come from the workload window, extracted in a
  handful of numpy ops over the pre-priced
  :class:`~repro.designers.greedy.CandidateEvaluation` arrays (the same
  SoA arena path the greedy nominal uses): normalized weighted benefit,
  write-maintenance drag, weighted coverage, best relative improvement,
  and budget-relative size.
* **Scores** are the ridge-regression UCB ``fᵀθ̂ + α·√(fᵀV⁻¹f)`` with
  ``θ̂ = V⁻¹b``; a super-arm is selected knapsack-greedily by score per
  byte under ``adapter.budget_bytes``.
* **Rewards** are per-window *observed* costs fed back through the
  :meth:`~repro.designers.base.Designer.observe` hook: each improved
  query's weighted saving is credited to the served structure that wins
  it, and ``V``/``b`` accumulate the winner's feature outer products.
* **Safety guard** ("no regret"): before a selection is accepted, its
  predicted workload cost is compared against the incumbent design's;
  a selection predicted to regress past ``safety_margin`` is rejected
  and the incumbent keeps serving.  Fallbacks are surfaced as the
  ``bandit.safety_fallbacks`` counter in :mod:`repro.obs`.  A rejected
  super-arm still tightens ``V`` (confidence-only update), so repeated
  over-optimism decays instead of deadlocking the learner.

Determinism contract: given a seed, the same sequence of
``design``/``observe`` calls produces bit-identical designs and model
state on any backend; :meth:`export_state`/:meth:`import_state`
snapshot the full learner (``V``, ``b``, the numpy RNG stream, the
incumbent, and the arm log) for ``repro.state`` kill-resume.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.costing.memo import BoundedMemo
from repro.designers.base import DesignAdapter, Designer
from repro.designers.greedy import CandidateEvaluation, evaluate_candidates
from repro.obs import get_metrics, tracer
from repro.workload.workload import Workload

#: Feature dimension (bias, benefit, penalty, coverage, best-rel, size).
FEATURE_DIM = 6

#: Ridge regularization λ (V starts as λ·I).
REGULARIZATION = 1.0

#: Default safety margin: reject selections predicted to cost more than
#: ``(1 + margin) ×`` the incumbent's predicted cost on the same window.
DEFAULT_SAFETY_MARGIN = 0.15

#: Arm-log retention: feature vectors are kept for this many distinct
#: recently selected structures (reward attribution needs the feature a
#: structure was picked with; older arms age out of the learning loop).
DEFAULT_ARM_LOG_LIMIT = 512

#: Tie-break jitter magnitude on UCB scores.  Small enough to never
#: reorder genuinely different scores, large enough to make the RNG
#: stream load-bearing for the kill-resume bit-identity contract.
_JITTER = 1e-9


def extract_features(
    evaluation: CandidateEvaluation, budget_bytes: int
) -> np.ndarray:
    """Per-candidate context features from a pre-priced evaluation.

    Fully vectorized over the ``(candidates × queries)`` cost matrix.
    Rows align with ``evaluation.candidates``; all components are
    scale-free (normalized by the window's base cost mass, the weight
    mass, or the byte budget), so one θ̂ transfers across windows.
    """
    base = evaluation.base_costs
    weights = evaluation.weights
    matrix = evaluation.matrix
    sizes = evaluation.sizes
    n = len(evaluation.candidates)
    if n == 0 or base.size == 0:
        return np.zeros((n, FEATURE_DIM), dtype=np.float64)
    cost_mass = float(np.dot(weights, base))
    # A denormal cost mass is no mass: dividing by it overflows to inf.
    denom = cost_mass if cost_mass > 1e-12 else 1.0
    weight_mass = float(weights.sum()) or 1.0
    finite = np.isfinite(matrix)
    # delta[c, q] > 0: candidate c improves query q; < 0: it regresses it
    # (write maintenance on the candidate's table).
    delta = np.where(finite, base[None, :] - matrix, 0.0)
    benefit = (np.maximum(delta, 0.0) @ weights) / denom
    penalty = (np.maximum(-delta, 0.0) @ weights) / denom
    improves = finite & (delta > 1e-12)
    coverage = (improves @ weights) / weight_mass
    # Only improving cells are divided: there 0 < delta <= base, so the
    # quotient can neither overflow nor divide by zero.
    rel = np.divide(delta, base[None, :], out=np.zeros_like(delta), where=improves)
    best_rel = np.max(rel, axis=1, initial=0.0)
    size_frac = np.minimum(sizes / float(max(budget_bytes, 1)), 1.0)
    return np.stack(
        [np.ones(n), benefit, penalty, coverage, best_rel, size_frac], axis=1
    )


class BanditDesigner(Designer):
    """C²UCB linear bandit over candidate structures; see module docstring."""

    name = "BanditDesigner"
    learns_online = True
    #: Exploration weight α on the confidence width.
    alpha = 0.6

    def __init__(
        self,
        nominal,
        adapter: DesignAdapter,
        *,
        safety_margin: float = DEFAULT_SAFETY_MARGIN,
        seed: int = 0,
    ):
        if safety_margin < 0:
            raise ValueError("safety_margin must be non-negative")
        self.nominal = nominal
        self.adapter = adapter
        self.safety_margin = safety_margin
        self.rng = np.random.default_rng(seed)
        # -- learner state (everything below is export_state-captured) ----
        self.V = REGULARIZATION * np.eye(FEATURE_DIM)
        self.b = np.zeros(FEATURE_DIM)
        self.rounds = 0
        self.observations = 0
        self.safety_fallbacks = 0
        #: The last accepted design; the safety guard's reference point.
        self.incumbent = None
        #: structure -> feature vector it was last selected with (bounded).
        self._arm_log = BoundedMemo(max_entries=DEFAULT_ARM_LOG_LIMIT)

    # -- selection ----------------------------------------------------------------

    def _ucb_scores(self, features: np.ndarray) -> np.ndarray:
        """``fᵀθ̂ + α·√(fᵀV⁻¹f)`` per arm, plus the tie-break jitter."""
        theta = np.linalg.solve(self.V, self.b)
        half = np.linalg.solve(self.V, features.T)  # V⁻¹ fᵀ, shape (d, n)
        width = np.sqrt(np.maximum(np.einsum("nd,dn->n", features, half), 0.0))
        jitter = self.rng.uniform(-_JITTER, _JITTER, size=len(features))
        return features @ theta + self.alpha * width + jitter

    def _knapsack_greedy(
        self, scores: np.ndarray, sizes: np.ndarray
    ) -> list[int]:
        """Indices chosen by score-per-byte density under the budget."""
        density = scores / np.maximum(sizes, 1.0)
        order = np.argsort(-density, kind="stable")
        chosen: list[int] = []
        remaining = float(self.adapter.budget_bytes)
        for i in order:
            if scores[i] <= 0:
                break  # positives sort before non-positives by density
            if sizes[i] <= remaining:
                chosen.append(int(i))
                remaining -= float(sizes[i])
        return chosen

    def _incumbent_design(self):
        if self.incumbent is None:
            return self.adapter.empty_design()
        return self.incumbent

    def design(self, workload: Workload):
        """One bandit round: score arms, select a super-arm, safety-check."""
        self.rounds += 1
        incumbent = self._incumbent_design()
        candidates = self.nominal.generate_candidates(workload)
        if not candidates:
            return incumbent
        evaluation = evaluate_candidates(self.adapter, workload, candidates)
        if evaluation.base_costs.size == 0:
            return incumbent
        features = extract_features(evaluation, self.adapter.budget_bytes)
        scores = self._ucb_scores(features)
        chosen = self._knapsack_greedy(scores, evaluation.sizes)
        design = self.adapter.make_design(
            [evaluation.candidates[i] for i in chosen]
        )
        predicted = self.adapter.workload_cost(workload, design).average_ms
        guard = self.adapter.workload_cost(workload, incumbent).average_ms
        accepted = predicted <= guard * (1.0 + self.safety_margin)
        t = tracer()
        if accepted:
            self.incumbent = design
            # Remember the features each selected structure was picked
            # with; observe() attributes its window reward against them.
            for i in chosen:
                arm = evaluation.candidates[i]
                self._arm_log[arm] = features[i].copy()
        else:
            # "No regret": keep the incumbent serving, but pay for the
            # optimism — a confidence-only update (V without b) shrinks
            # the rejected arms' widths so the same over-estimate cannot
            # repeat forever.
            self.safety_fallbacks += 1
            get_metrics().counter("bandit.safety_fallbacks").inc()
            for i in chosen:
                f = features[i]
                self.V += np.outer(f, f)
            design = incumbent
        if t.enabled:
            t.emit(
                "bandit.round",
                round=self.rounds,
                arms=len(candidates),
                selected=len(chosen),
                accepted=accepted,
                predicted_ms=predicted,
                incumbent_ms=guard,
                fallbacks=self.safety_fallbacks,
            )
        return design

    # -- learning -----------------------------------------------------------------

    def observe(self, window: Workload, design, observed_costs) -> None:
        """Credit the window's observed savings to the served structures.

        ``observed_costs`` maps SQL text to the cost actually recorded
        for the window under ``design``.  Each improved query's weighted
        saving over its bare-table base cost is credited to the served
        structure that wins it (minimum single-structure cost), and the
        winners' feature outer products accumulate into ``V``/``b``.
        Structures that were never selected by this learner (no feature
        vector on record) are skipped.
        """
        self.observations += 1
        arms = [
            s for s in self.adapter.structures(design) if s in self._arm_log
        ]
        if not arms or not observed_costs:
            return
        evaluation = evaluate_candidates(self.adapter, window, arms)
        base = evaluation.base_costs
        if base.size == 0:
            return
        weights = evaluation.weights
        cost_mass = float(np.dot(weights, base))
        if cost_mass <= 0:
            return
        observed = np.array(
            [
                observed_costs.get(sql, b)
                for sql, b in zip(evaluation.sqls, base)
            ],
            dtype=np.float64,
        )
        matrix = np.where(np.isfinite(evaluation.matrix), evaluation.matrix, np.inf)
        winner = np.argmin(matrix, axis=0)
        cols = np.arange(base.size)
        helped = matrix[winner, cols] < base - 1e-12
        gain = weights * (base - observed)
        rewards = np.zeros(len(arms))
        np.add.at(rewards, winner[helped], gain[helped])
        rewards = np.clip(rewards / cost_mass, -1.0, 1.0)
        for arm, reward in zip(arms, rewards):
            f = self._arm_log.peek(arm)  # reads must not reorder the log
            self.V += np.outer(f, f)
            self.b += f * reward

    # -- state / reporting ---------------------------------------------------------

    def export_state(self) -> dict:
        """Everything a resumed learner needs for bit-identical behavior."""
        return {
            "V": self.V.copy(),
            "b": self.b.copy(),
            "rng": self.rng.bit_generator.state,
            "rounds": self.rounds,
            "observations": self.observations,
            "safety_fallbacks": self.safety_fallbacks,
            "incumbent": self.incumbent,
            "arm_log": [(arm, f.copy()) for arm, f in self._arm_log.items()],
        }

    def import_state(self, state: dict) -> None:
        """Restore what :meth:`export_state` captured."""
        self.V = state["V"].copy()
        self.b = state["b"].copy()
        self.rng.bit_generator.state = state["rng"]
        self.rounds = state["rounds"]
        self.observations = state["observations"]
        self.safety_fallbacks = state["safety_fallbacks"]
        self.incumbent = state["incumbent"]
        self._arm_log.replace((arm, f.copy()) for arm, f in state["arm_log"])

    def model_digest(self) -> str:
        """Digest of the learned model (V, b) — backend-identity checks."""
        h = hashlib.blake2b(digest_size=8)
        h.update(np.ascontiguousarray(self.V).tobytes())
        h.update(np.ascontiguousarray(self.b).tobytes())
        return h.hexdigest()

    def stats(self) -> dict:
        """Learner counters surfaced through ``DesignerRun.stats``."""
        return {
            "rounds": self.rounds,
            "observations": self.observations,
            "safety_fallbacks": self.safety_fallbacks,
            "arms_tracked": len(self._arm_log),
            "model_digest": self.model_digest(),
        }
