"""Stratified ``make_folds`` against the per-sample bucket loop it replaced."""

import numpy as np
import pytest

from peot.evaluation import _fold_rng, make_folds


def bucket_folds(n, k, seed, fingerprint, y):
    """Each class's rows shuffled, then dealt one sample at a time to
    buckets[(offset + j) % k], where offset counts the earlier classes' rows."""
    rng = _fold_rng(fingerprint, seed)
    y = np.asarray(y, dtype=np.int64)
    buckets = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        for j, sample in enumerate(idx):
            buckets[(offset + j) % k].append(int(sample))
        offset += idx.size
    all_idx = np.arange(n)
    folds = []
    for b in buckets:
        test = np.sort(np.asarray(b, dtype=np.int64))
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((all_idx[mask], test))
    return folds


@pytest.mark.parametrize("trial", range(40))
def test_stratified_folds_equal_the_bucket_loop(trial):
    rng = np.random.default_rng(900 + trial)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(k, 120))
        n_classes = int(rng.integers(1, 6))
        # skewed class sizes, and labels that skip values
        y = rng.choice(np.arange(n_classes) * 2, size=n, p=rng.dirichlet(np.ones(n_classes)))
        seed = int(rng.integers(0, 1000))
        fingerprint = None if rng.random() < 0.3 else f"{rng.integers(1 << 62):016x}"
        got = make_folds(n, k, "stratified", seed, fingerprint, y)
        want = bucket_folds(n, k, seed, fingerprint, y)
        assert len(got) == len(want) == k
        for (tr, te), (tr_want, te_want) in zip(got, want):
            assert te.dtype == te_want.dtype and tr.dtype == tr_want.dtype
            assert np.array_equal(te, te_want) and np.array_equal(tr, tr_want)
