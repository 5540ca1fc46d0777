"""The GBT split search on rank-sorted node blocks, against the member-mask
search it replaced.

``MemberMaskBuilder`` below is the builder as it was before a node read its
block from the ranks of its rows: every node gathered the full (F, N) sorted
order through a membership mask and picked its feature in a Python loop over
F.  Models, node by node splits and the window of admissible splits must be
the same to the byte.
"""

import inspect
import textwrap
import warnings
from dataclasses import replace

import numpy as np
import pytest

from peot import boosting, evaluation, features, synth
from peot.boosting import GbtConfig, _sorted_columns, _TreeBuilder
from peot.errors import InvalidInputError
from peot.serialize import dumps_canonical


class MemberMaskBuilder(_TreeBuilder):
    """The member-mask ``_best_split`` and the recursive ``build``."""

    def _best_split(self, idx):
        cfg = self.cfg
        m = idx.size
        if m < 2 * cfg.min_samples_leaf:
            return None
        g, h = self.g[idx], self.h[idx]
        G, H = g.sum(), h.sum()
        parent = G * G / (H + cfg.reg_lambda)
        member = np.zeros(self.X.shape[0], dtype=bool)
        member[idx] = True
        keep = member[self.order]
        F = self.order.shape[0]
        rows = self.order[keep].reshape(F, m)
        xs = self.sorted_x[keep].reshape(F, m)
        cg = np.cumsum(self.g[rows], axis=1)
        ch = np.cumsum(self.h[rows], axis=1)
        GL, HL = cg[:, :-1], ch[:, :-1]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (GL * GL / (HL + cfg.reg_lambda)
                       + GR * GR / (HR + cfg.reg_lambda) - parent)
        if cfg.cost_lambda > 0:
            cost = np.ones(F) if self.cost_vec is None else np.asarray(self.cost_vec, float)
            penalty = cfg.cost_lambda * cost
            penalty[list(self.used_features)] = 0.0
            gains -= penalty[:, None]
        n_left = np.arange(1, m)
        cand = ((xs[:, 1:] > xs[:, :-1]) & (n_left >= cfg.min_samples_leaf)
                & (n_left <= m - cfg.min_samples_leaf))
        gains[~cand] = -np.inf
        pos = np.argmax(gains, axis=1)
        col_best = gains[np.arange(F), pos]
        best = None
        for j in range(F):
            if col_best[j] <= 0.0:
                continue
            if best is None or col_best[j] > best[0]:
                best = (float(col_best[j]), j)
        if best is None:
            return None
        gain, j = best
        p = pos[j]
        thr = 0.5 * (xs[j, p] + xs[j, p + 1])
        return gain, j, float(thr), np.searchsorted(idx, rows[j, :p + 1])

    def build(self, idx, depth=0):
        node = len(self.nodes)
        split = self._best_split(idx) if depth < self.cfg.max_depth else None
        if split is None:
            w = -self.g[idx].sum() / (self.h[idx].sum() + self.cfg.reg_lambda)
            self.nodes.append((-1, np.nan, -1, -1, float(w), depth))
            return node
        _, j, thr, left_local = split
        self.used_features.add(j)
        self.nodes.append(None)
        left_mask = np.zeros(idx.size, dtype=bool)
        left_mask[left_local] = True
        left = self.build(idx[left_mask], depth + 1)
        right = self.build(idx[~left_mask], depth + 1)
        self.nodes[node] = (j, thr, left, right, 0.0, depth)
        return node


def window_mutant(old, new):
    """``_TreeBuilder`` with ``old`` replaced by ``new`` in its ``_best_split``."""
    source = textwrap.dedent(inspect.getsource(_TreeBuilder._best_split))
    assert source.count(old) == 1
    scope = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), vars(boosting), scope)
    return type("Mutant", (_TreeBuilder,), {"_best_split": scope["_best_split"]})


WINDOW = "lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf"
MUTANTS = {
    "lo - 1": "lo, hi = cfg.min_samples_leaf - 2, m - cfg.min_samples_leaf",
    "lo + 1": "lo, hi = cfg.min_samples_leaf, m - cfg.min_samples_leaf",
    "hi - 1": "lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf - 1",
    "hi + 1": "lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf + 1",
}


def models_of(builder, fit, *args):
    """``fit(*args)``'s boosted model, each tree grown by ``builder``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(boosting, "_TreeBuilder", builder)
        return fit(*args)


def canonical(model):
    return dumps_canonical(model.to_doc())


# ---------------------------------------------------------------------------
# the finger preset's folds, as the report trains them


@pytest.fixture(scope="module", params=[7, 11])
def finger_folds(request):
    rec = synth.synth_recording("finger", 400, request.param)
    spec = features.default_feature_spec(rec.n_channels, rec.fs)
    X = features.extract_features(rec, spec)
    c = features.feature_cost_vector(spec, features.DEFAULT_COST_TABLE)
    folds = evaluation.make_folds(X.shape[0], 5, "blocks", request.param)
    return [(X[tr], rec.labels[tr]) for tr, _ in folds], c


def test_the_finger_folds_give_the_member_mask_gbt_and_pegb_models(finger_folds):
    folds, c = finger_folds
    gbt = GbtConfig()
    pegb = replace(gbt, cost_lambda=boosting.PEGB_COST_LAMBDA)
    for X, y in folds:
        assert X.shape == (320, 32) and int(y.max()) + 1 > 2

        def fitted(builder):
            return [canonical(models_of(builder, boosting.train_gbt_multiclass, X, y, gbt)),
                    canonical(models_of(builder, evaluation._fit_pegb, X, y, pegb, c))]

        assert fitted(_TreeBuilder) == fitted(MemberMaskBuilder)


# ---------------------------------------------------------------------------
# tie-heavy random sets


def tie_heavy(seed):
    rng = np.random.default_rng(seed)
    n, F = int(rng.integers(12, 90)), int(rng.integers(1, 6))
    # few distinct values per column: most columns hold long runs of ties
    X = rng.integers(0, 3 + seed % 3, size=(n, F)).astype(np.float64)
    X[:, 0] += np.round(rng.normal(size=n), 1) * (seed % 2)
    y = rng.integers(0, 2 + seed % 3, size=n)
    return X, y, rng.uniform(0.2, 3.0, size=F)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("min_samples_leaf", range(1, 7))
def test_tie_heavy_sets_give_the_member_mask_models(seed, min_samples_leaf):
    X, y, c = tie_heavy(seed)
    for cost_lambda in (0.0, 0.4):
        cfg = GbtConfig(n_trees=3, max_depth=5, min_samples_leaf=min_samples_leaf,
                        cost_lambda=cost_lambda)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a one-class member
            got, want = (canonical(models_of(b, boosting.train_gbt_multiclass, X, y, cfg, c))
                         for b in (_TreeBuilder, MemberMaskBuilder))
        assert got == want


# ---------------------------------------------------------------------------
# one node's split, against the member-mask search


def same_split(got, want):
    if got is None or want is None:
        return got is None and want is None
    return got[:3] == want[:3] and np.array_equal(got[3], want[3])


def split_cases():
    """``(X, g, h, cfg, cost_vec, used, idx)``: random ascending subsets, the
    root and nodes of exactly ``2 * min_samples_leaf`` rows."""
    rng = np.random.default_rng(25)
    for trial in range(240):
        n, F = int(rng.integers(4, 40)), int(rng.integers(1, 5))
        X = rng.integers(0, 4, size=(n, F)).astype(np.float64)
        X[:, -1] += rng.normal(size=n) * (trial % 2)
        g = rng.normal(size=n)
        h = rng.uniform(0.05, 0.25, size=n)
        msl = int(rng.integers(1, min(6, n // 2) + 1))
        cfg = GbtConfig(min_samples_leaf=msl, reg_lambda=float(rng.choice([0.5, 1.0, 4.0])),
                        cost_lambda=float(rng.choice([0.0, 0.05, 0.5])))
        cost_vec = rng.uniform(0.2, 2.0, size=F)
        used = {j for j in range(F) if rng.random() < 0.5}
        m = (n, 2 * msl, int(rng.integers(2 * msl, n + 1)))[trial % 3]
        idx = np.sort(rng.choice(n, size=m, replace=False))
        yield X, g, h, cfg, cost_vec, used, idx


def splits_agree(builder):
    """``(agree, split)``: the cases of ``split_cases`` where ``builder``
    returns the member-mask search's split, and those where that search
    splits at all.  A case where ``builder`` raises agrees with nothing."""
    agree = split = 0
    for X, g, h, cfg, cost_vec, used, idx in split_cases():
        want_b, got_b = (b(X, g, h, cfg, cost_vec) for b in (MemberMaskBuilder, builder))
        want_b.used_features, got_b.used_features = set(used), set(used)
        want = want_b._best_split(idx)
        try:
            got = got_b._best_split(idx)
        except (IndexError, ValueError):
            continue
        agree += same_split(got, want)
        split += want is not None
    return agree, split


def test_every_node_splits_as_the_member_mask_search():
    agree, split = splits_agree(_TreeBuilder)
    assert agree == 240 and split > 100


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_window_off_by_one_splits_some_node_otherwise(mutant):
    agree, _ = splits_agree(window_mutant(WINDOW, MUTANTS[mutant]))
    assert agree < 240


def test_the_root_reads_the_sorted_columns_and_ranks_invert_the_order():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(50, 4)).astype(np.float64)
    order, sorted_x, rank = _sorted_columns(X)
    assert np.array_equal(np.take_along_axis(rank, order, axis=1),
                          np.broadcast_to(np.arange(50), (4, 50)))
    assert np.array_equal(sorted_x, np.sort(X, axis=0).T)
    builder = _TreeBuilder(X, rng.normal(size=50), np.full(50, 0.25),
                           GbtConfig(min_samples_leaf=2))
    reference = MemberMaskBuilder(X, builder.g, builder.h, builder.cfg)
    everything = np.arange(50)
    assert same_split(builder._best_split(everything), reference._best_split(everything))


# ---------------------------------------------------------------------------
# reg_lambda = 0 is rejected


def test_zero_reg_lambda_is_rejected_before_training():
    X = np.random.default_rng(0).standard_normal((200, 3))
    y = X[:, 0] > 0
    cfg = GbtConfig(n_trees=40, max_depth=3, learning_rate=1.0, reg_lambda=0.0,
                    min_samples_leaf=1)
    with pytest.raises(InvalidInputError, match="reg_lambda > 0"):
        boosting.train_gbt(X, y, cfg)
    # the same set with a positive weight trains a model with finite leaves
    model = boosting.train_gbt(X, y, replace(cfg, reg_lambda=1e-3))
    assert all(np.isfinite(t.value).all() for t in model.trees)
    assert np.mean(boosting.predict_gbt(model, X)[2] == y) == 1.0


@pytest.mark.parametrize("reg_lambda", [0.0, -0.0, -1.0])
def test_a_reg_lambda_at_or_below_zero_fails_validation(reg_lambda):
    with pytest.raises(InvalidInputError, match="finite"):
        GbtConfig(reg_lambda=reg_lambda).validate()


@pytest.mark.parametrize("cost", [np.nan, np.inf])
def test_a_non_finite_feature_cost_is_rejected_when_priced(cost):
    X = np.random.default_rng(1).standard_normal((40, 3))
    y = (X[:, 1] > 0).astype(np.int64)
    costs = np.array([1.0, cost, 1.0])
    with pytest.raises(InvalidInputError, match="finite"):
        boosting.train_gbt(X, y, GbtConfig(n_trees=2, cost_lambda=0.5), costs)
    # an unpriced run does not read the costs
    boosting.train_gbt(X, y, GbtConfig(n_trees=2), costs)

