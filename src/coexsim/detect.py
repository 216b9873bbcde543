"""Radar-presence detection from stacked KPM windows.

A small fully connected ReLU network (input K -> 32 -> 16 -> 2 softmax)
trained with mini-batch RMSprop on z-score-normalized features.  Everything
is plain numpy so the analytic gradients can be checked against finite
differences, and training is bit-deterministic for a fixed seed.  RMSprop
updates one flat parameter vector in place (the weights and biases are
views into it), in the per-array update's operation order.

Feature order per KPM record: throughput_mbps, bler_pct, mcs, bsr_bytes.
Windows stack the latest N records oldest-first.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from pathlib import Path
import zipfile

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateDatasetError,
    DimensionMismatchError,
    InvalidParamsError,
)
from .ranlink import KpmRecord

KPM_FEATURES = ("throughput_mbps", "bler_pct", "mcs", "bsr_bytes")
N_FEATURES = len(KPM_FEATURES)
MODEL_FORMAT_VERSION = 1

TRAIN_FRACTION = 0.75    # share of windows that trains; the rest validates
HIDDEN_SIZES = (32, 16)  # hidden layer widths
RMS_DECAY = 0.9          # RMSprop decay and epsilon
RMS_EPSILON = 1e-8


@dataclass(frozen=True)
class KpmWindow:
    """Flattened stack of N consecutive KPM feature vectors (oldest first)."""

    features: np.ndarray
    n_stack: int

    def __post_init__(self):
        arr = np.asarray(self.features, dtype=float).ravel()
        if arr.size != self.n_stack * N_FEATURES:
            raise InvalidParamsError("window length != n_stack * n_features")
        if not np.all(np.isfinite(arr)):
            raise InvalidParamsError("window features must be finite")
        object.__setattr__(self, "features", arr)


def record_features(record: KpmRecord) -> np.ndarray:
    return np.array([record.throughput_mbps, record.bler_pct,
                     float(record.mcs), float(record.bsr_bytes)])


def window_kpms(features: np.ndarray, n_stack: int) -> np.ndarray:
    """Sliding windows over ``[records, N_FEATURES]`` feature rows, as a read-only
    strided view ``[records - n_stack + 1, n_stack * N_FEATURES]``; row r
    stacks records r .. r + n_stack - 1, oldest first."""
    if n_stack < 1:
        raise InvalidParamsError("n_stack must be >= 1")
    features = np.ascontiguousarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != N_FEATURES:
        raise InvalidParamsError(f"features must be [records, {N_FEATURES}]")
    width = n_stack * N_FEATURES
    if features.shape[0] < n_stack:
        return np.empty((0, width))
    return sliding_window_view(features.reshape(-1), width)[::N_FEATURES]


@dataclass
class ClassifierModel:
    """Feed-forward ReLU network with softmax head and frozen normalization."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    feat_mean: np.ndarray
    feat_std: np.ndarray

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.feat_mean) / self.feat_std

    def forward(self, x_norm: np.ndarray) -> np.ndarray:
        """Softmax class probabilities for normalized inputs [batch, K].

        Each row enters matmul as its own (1, K) matrix, so numpy runs the
        same kernel on it whatever the batch size: a row's probabilities are
        bit-identical alone and in any batch (a 2-D batch would pick BLAS
        kernels by matrix shape).
        """
        rows = np.atleast_2d(x_norm)[:, np.newaxis, :]
        probs, _ = _forward_cached(self.weights, self.biases, rows)
        return probs[:, 0]

    def predict_proba(self, x_raw: np.ndarray) -> np.ndarray:
        """Class probabilities [batch, 2] for raw feature rows [batch, K]."""
        x = np.atleast_2d(x_raw)
        if x.shape[-1] != self.input_size:
            raise DimensionMismatchError(
                f"window length {x.shape[-1]} != model input {self.input_size}")
        return self.forward(self.normalize(x))

    def save(self, path) -> None:
        arrays = {
            "format_version": np.array(MODEL_FORMAT_VERSION),
            "layer_sizes": np.asarray(self.layer_sizes),
            "feat_mean": self.feat_mean,
            "feat_std": self.feat_std,
        }
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"W{i}"] = w
            arrays[f"b{i}"] = b
        np.savez(str(path), **arrays)

    @classmethod
    def load(cls, path) -> "ClassifierModel":
        path = str(path)
        if not Path(path).exists():
            raise FileNotFoundError(path)
        try:
            data = np.load(path)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise InvalidParamsError(f"{path} is not an npz model file") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise InvalidParamsError(f"{path} is not an npz model file")

        def array(name: str) -> np.ndarray:
            try:
                value = data[name]
            except KeyError as exc:
                raise InvalidParamsError(f"model file {path} lacks an array: {exc}") from exc
            except ValueError:  # an object array, which loads only through pickle
                value = None
            if value is None or value.dtype.kind not in "biuf":
                raise InvalidParamsError(f"model file {path}: {name} is not an array of numbers")
            return value

        with data:
            version = array("format_version")
            if version.size != 1:
                raise InvalidParamsError(f"model file {path}: format_version holds "
                                         f"{version.size} values, not one")
            version = version.item()
            if version != MODEL_FORMAT_VERSION:
                raise InvalidParamsError(f"model file {path}: unsupported model format "
                                         f"version {version}")
            sizes = array("layer_sizes")
            if sizes.ndim != 1:
                raise InvalidParamsError(f"model file {path}: layer_sizes has shape "
                                         f"{sizes.shape}, not one dimension")
            n_layers = len(sizes) - 1
            model = cls(layer_sizes=tuple(int(v) for v in sizes),
                        weights=[array(f"W{i}") for i in range(n_layers)],
                        biases=[array(f"b{i}") for i in range(n_layers)],
                        feat_mean=array("feat_mean"), feat_std=array("feat_std"))
        _check_model_shapes(model, path)
        arrays = [*model.weights, *model.biases, model.feat_mean, model.feat_std]
        if not all(np.isfinite(a).all() for a in arrays):
            raise InvalidParamsError(f"model file {path} holds non-finite values")
        if not (model.feat_std > 0).all():
            raise InvalidParamsError(f"model file {path}: feat_std holds a value not above 0")
        return model


def _check_model_shapes(model: ClassifierModel, path) -> None:
    """Each array's shape follows ``layer_sizes``, which ends in the 2 classes; a
    model file that breaks this raises InvalidParamsError naming the array."""
    sizes = model.layer_sizes
    if len(sizes) < 2 or sizes[-1] != 2:
        raise InvalidParamsError(f"model file {path}: layer_sizes is {list(sizes)}, which does "
                                 f"not end in the 2 classes")
    want = {"feat_mean": (model.feat_mean, (sizes[0],)),
            "feat_std": (model.feat_std, (sizes[0],))}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        want[f"W{i}"] = (w, (sizes[i + 1], sizes[i]))
        want[f"b{i}"] = (b, (sizes[i + 1],))
    for name, (array, shape) in want.items():
        if array.shape != shape:
            raise InvalidParamsError(f"model file {path}: {name} has shape {array.shape}, "
                                     f"not {shape}")


def check_seed(seed) -> None:
    """A seed for ``np.random.default_rng``: a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParamsError(f"seed must be a non-negative integer, not {seed!r}")


def check_count(name: str, value) -> None:
    """A count of items, records, epochs or rows: an integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InvalidParamsError(f"{name} must be an integer >= 1, not {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float, np.integer, np.floating)):
            raise InvalidParamsError(f"learning_rate must be a real number, not {rate!r}")
        if not math.isfinite(rate):
            raise InvalidParamsError(f"learning_rate must be finite, got {rate}")
        if rate <= 0:
            raise InvalidParamsError(f"learning_rate must be positive, got {rate}")
        check_count("epochs", self.epochs)
        check_count("batch_size", self.batch_size)
        check_seed(self.seed)


@dataclass(frozen=True)
class TrainResult:
    model: ClassifierModel
    train_accuracy: float
    val_accuracy: float


@dataclass(frozen=True)
class Detection:
    radar_present: bool
    confidence: float


def _forward_cached(weights, biases, x):
    """Returns (softmax probs, cache of pre/post activations for backprop)."""
    a = x
    cache = [(None, a)]
    n_layers = len(weights)
    for i in range(n_layers):
        z = a @ weights[i].T
        z += biases[i]
        a = np.maximum(z, 0.0) if i < n_layers - 1 else z
        cache.append((z, a))
    logits = cache[-1][0]
    probs = logits - logits.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs, cache


def loss_and_grads(weights, biases, x_norm, y):
    """Mean sparse categorical cross-entropy and its analytic gradients."""
    x_norm = np.atleast_2d(x_norm)
    y = np.asarray(y, dtype=int)
    n = x_norm.shape[0]
    probs, cache = _forward_cached(weights, biases, x_norm)
    rows = np.arange(n)
    loss = float(-np.mean(np.log(probs[rows, y] + 1e-300)))

    delta = probs  # the loss has read probs; they become d loss / d logits
    delta[rows, y] -= 1.0
    delta /= n

    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = delta.T @ cache[i][1]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ weights[i]
            delta *= cache[i][0] > 0
    return loss, grads_w, grads_b


def _init_params(layer_sizes, rng):
    """(flat parameter vector, weight views, bias views), layer by layer:
    He-normal weights, then zero biases."""
    pairs = list(zip(layer_sizes, layer_sizes[1:]))
    params = np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs))
    weights, biases, start = [], [], 0
    for fan_in, fan_out in pairs:
        w = params[start:start + fan_out * fan_in].reshape(fan_out, fan_in)
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), w.shape)
        start += w.size + fan_out
        weights.append(w)
        biases.append(params[start - fan_out:start])
    return params, weights, biases


def train_detector(x: np.ndarray, labels, config: TrainConfig = TrainConfig()
                   ) -> TrainResult:
    """Shuffle, split, fit normalization on the training split, run RMSprop.

    ``x`` holds one stacked window per row, ``[windows, n_stack * N_FEATURES]``.
    Each step joins ``loss_and_grads``' gradients into one flat vector and
    updates the flat parameter vector in place, in the per-array order:
    ``c = RMS_DECAY * c + (1 - RMS_DECAY) * g**2``, then
    ``w -= lr * g / (sqrt(c) + RMS_EPSILON)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != y.size:
        raise InvalidParamsError("windows and labels length mismatch")
    if not np.isfinite(x).all():
        raise InvalidParamsError("window features must be finite")
    if len(set(y.tolist())) < 2:
        raise DegenerateDatasetError("training data must contain both classes")
    if y.size < 2 * config.batch_size:
        raise DegenerateDatasetError(
            f"need at least {2 * config.batch_size} windows, got {y.size}")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(y.size)
    x, y = x[order], y[order]
    n_train = int(round(TRAIN_FRACTION * y.size))
    x_train, y_train = x[:n_train], y[:n_train]
    x_val, y_val = x[n_train:], y[n_train:]

    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std == 0.0] = 1.0  # zero-variance features pass through unscaled
    xn_train = (x_train - mean) / std
    xn_val = (x_val - mean) / std

    layer_sizes = (x.shape[1], *HIDDEN_SIZES, 2)
    params, weights, biases = _init_params(layer_sizes, rng)
    cache = np.zeros_like(params)
    step = np.empty_like(params)
    denom = np.empty_like(params)
    new_share = 1 - RMS_DECAY  # 0.09999999999999998, as the per-array step had it

    for _ in range(config.epochs):
        perm = rng.permutation(n_train)
        xs, ys = xn_train[perm], y_train[perm]
        for start in range(0, n_train, config.batch_size):
            batch = slice(start, start + config.batch_size)
            _, gw, gb = loss_and_grads(weights, biases, xs[batch], ys[batch])
            grad = np.concatenate([a.ravel() for pair in zip(gw, gb) for a in pair])
            cache *= RMS_DECAY
            np.square(grad, out=step)
            step *= new_share
            cache += step
            np.sqrt(cache, out=denom)
            denom += RMS_EPSILON
            np.multiply(config.learning_rate, grad, out=step)
            step /= denom
            params -= step

    model = ClassifierModel(layer_sizes, weights, biases, mean, std)
    train_acc = _accuracy(model, xn_train, y_train)
    val_acc = _accuracy(model, xn_val, y_val) if y_val.size else train_acc
    return TrainResult(model, train_acc, val_acc)


def _accuracy(model: ClassifierModel, x_norm, y) -> float:
    probs = model.forward(x_norm)
    return float(np.mean(np.argmax(probs, axis=1) == y))


def radar_present(probs: np.ndarray) -> np.ndarray:
    """Argmax of ``predict_proba`` rows; ties break toward 'no radar'."""
    return probs[..., 1] > probs[..., 0]  # strict: tie -> class 0, no radar


def infer(model: ClassifierModel, window: KpmWindow) -> Detection:
    """One window's detection and the winning class probability."""
    probs = model.predict_proba(window.features)[0]
    return Detection(radar_present=bool(radar_present(probs)),
                     confidence=float(probs.max()))
