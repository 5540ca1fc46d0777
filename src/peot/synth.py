"""Synthetic neural-signal tasks standing in for unavailable patient data.

Three generators mirror the benchmark task families: broadband amplitude
bursts (seizure-like, imbalanced binary), 4-8 Hz oscillation bursts
(tremor-like, binary), and channel/band-specific rhythm patterns
(finger-movement-like, balanced 5-class).  Every generator is a pure
function of its seed.

The class signal is always spread over several channels while a
single-channel distractor of comparable magnitude rides on a fraction of
the negative windows (seizure, tremor) or on every window (finger).  Each
tremor and finger window gets a global amplitude jitter; seizure windows
get none.  No single feature column separates the classes, so models must
combine features; cheap combinations (line-length, variance across
channels) remain sufficient, which is what cost-aware training is supposed
to find.
"""

import numpy as np

from .data import Recording
from .errors import InvalidInputError

TASKS = ("seizure", "tremor", "finger")

# every recording: 4 channels of 256-sample windows at 256 Hz
N_CHANNELS = 4
FS = 256.0
WINDOW_LEN = 256

N_FINGER_CLASSES = 5
# rhythm frequency for finger classes 0-3 (class 4 is quiescent); each class
# oscillates on channels (k, k+1 mod 4)
FINGER_FREQS = (9.0, 13.0, 35.0, 75.0)

AMPLITUDE_JITTER = (0.85, 1.25)

# windows per block in the separability note's line-length pass
_NOTE_BLOCK = 64


def _burst_envelope(rng, lo=0.6, hi=0.95):
    """Contiguous on-region covering a uniform fraction of the window."""
    length = int(rng.uniform(lo, hi) * WINDOW_LEN)
    start = rng.integers(0, WINDOW_LEN - length + 1)
    env = np.zeros(WINDOW_LEN)
    env[start:start + length] = 1.0
    return env


def _oscillation(rng, freq, amplitude):
    t = np.arange(WINDOW_LEN) / FS
    return amplitude * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))


def synth_recording(task: str, n_windows: int, seed: int) -> Recording:
    """Generate a labeled synthetic recording for one task family:
    ``N_CHANNELS`` channels of ``WINDOW_LEN``-sample windows at ``FS`` Hz."""
    if task not in TASKS:
        raise InvalidInputError(f"unknown task {task!r}; expected one of {TASKS}")
    if n_windows < 100:
        raise InvalidInputError("n_windows must be >= 100")
    rng = np.random.default_rng(seed)
    windows = np.empty((n_windows, N_CHANNELS, WINDOW_LEN))

    if task == "seizure":
        labels = (rng.random(n_windows) < 0.25).astype(np.int64)
        for i in range(n_windows):
            w = rng.standard_normal((N_CHANNELS, WINDOW_LEN))
            if labels[i]:
                # broadband burst on a random 3-channel subset; per channel it
                # looks exactly like an artifact, only the spread differs
                env = _burst_envelope(rng, lo=0.7, hi=0.95)
                for ch in rng.permutation(N_CHANNELS)[: N_CHANNELS - 1]:
                    w[ch] *= 1.0 + 2.2 * env
                    w[ch] += env * _oscillation(rng, rng.uniform(20.0, 40.0), 1.5)
            elif rng.random() < 0.35:
                env = _burst_envelope(rng)
                ch = int(rng.integers(N_CHANNELS))
                w[ch] *= 1.0 + 2.2 * env
                w[ch] += env * _oscillation(rng, rng.uniform(20.0, 40.0), 1.5)
            windows[i] = w
    elif task == "tremor":
        labels = (rng.random(n_windows) < 0.4).astype(np.int64)
        for i in range(n_windows):
            w = rng.standard_normal((N_CHANNELS, WINDOW_LEN))
            if labels[i]:
                # theta-band rhythm on a random 3-channel subset
                env = _burst_envelope(rng, lo=0.6, hi=0.95)
                for ch in rng.permutation(N_CHANNELS)[: N_CHANNELS - 1]:
                    w[ch] += env * _oscillation(rng, rng.uniform(4.5, 7.5), 2.0)
            elif rng.random() < 0.55:
                # single-channel rhythm matching the positive amplitude
                env = _burst_envelope(rng, lo=0.6, hi=0.95)
                ch = int(rng.integers(N_CHANNELS))
                w[ch] += env * _oscillation(rng, rng.uniform(4.5, 7.5), 2.0)
            windows[i] = w * rng.uniform(*AMPLITUDE_JITTER)
    else:  # finger
        per_class = n_windows // N_FINGER_CLASSES
        labels = np.repeat(np.arange(N_FINGER_CLASSES, dtype=np.int64), per_class)
        labels = np.concatenate([
            labels, np.zeros(n_windows - labels.size, dtype=np.int64),
        ])
        labels = labels[rng.permutation(n_windows)]
        for i in range(n_windows):
            w = rng.standard_normal((N_CHANNELS, WINDOW_LEN))
            k = labels[i]
            if k < len(FINGER_FREQS):
                for ch in (k % N_CHANNELS, (k + 1) % N_CHANNELS):
                    w[ch] += _oscillation(rng, FINGER_FREQS[k], 2.2)
            # distractor: a weaker class-band rhythm on ONE random channel;
            # single (channel, band) features stay ambiguous but the
            # two-channel full-amplitude pattern identifies the class
            blip = int(rng.integers(len(FINGER_FREQS)))
            ch = int(rng.integers(N_CHANNELS))
            w[ch] += _oscillation(rng, FINGER_FREQS[blip], 1.5)
            windows[i] = w * rng.uniform(*AMPLITUDE_JITTER)

    meta = {"task": task, "seed": seed}
    meta.update(_separability_note(task, windows, labels))
    return Recording(windows=windows, fs=FS, labels=labels, meta=meta)


def _separability_note(task, windows, labels) -> dict:
    """Measured ground-truth margins, recorded with the generated data."""
    note = {"n_windows": int(labels.size),
            "class_counts": np.bincount(labels).tolist()}
    if task in ("seizure", "tremor"):
        # per-window line length (as features.line_length), mean over channels;
        # blocks of windows keep the temporaries small next to the recording
        size = windows.shape[2]
        ll = np.concatenate([
            np.mean(np.sum(np.abs(np.diff(windows[i:i + _NOTE_BLOCK], axis=2)), axis=2) / size,
                    axis=1)
            for i in range(0, labels.size, _NOTE_BLOCK)
        ])
        pos, neg = ll[labels == 1], ll[labels == 0]
        if pos.size and neg.size:
            note["mean_line_length_ratio"] = float(pos.mean() / neg.mean())
    return note
