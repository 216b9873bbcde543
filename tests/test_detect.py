import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from coexsim.detect import (
    HIDDEN_SIZES,
    RMS_DECAY,
    RMS_EPSILON,
    TRAIN_FRACTION,
    ClassifierModel,
    KpmWindow,
    TrainConfig,
    infer,
    loss_and_grads,
    radar_present,
    record_features,
    train_detector,
    window_kpms,
)
from coexsim.errors import (
    DegenerateDatasetError,
    DimensionMismatchError,
    InvalidParamsError,
)
from coexsim.ranlink import KpmRecord


def make_record(t, thr, bler, mcs, bsr):
    return KpmRecord(t, thr, bler, mcs, bsr, 20.0)


def toy_dataset(n_per_class=300, n_stack=1, seed=0):
    """Linearly separable: radar windows (throughput 0, BLER 100) vs clean,
    stacked into one matrix."""
    rng = np.random.default_rng(seed)
    windows, labels = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            if label:
                feats = [0.0 + rng.normal(0, 0.05), 100.0 + rng.normal(0, 0.5),
                         28.0, 1000.0]
            else:
                feats = [5.0 + rng.normal(0, 0.05), 0.0 + abs(rng.normal(0, 0.5)),
                         28.0, 0.0]
            feats = np.tile(feats, n_stack)
            windows.append(KpmWindow(np.abs(feats), n_stack))
            labels.append(label)
    return np.stack([w.features for w in windows]), labels


def features_of(records):
    return np.stack([record_features(r) for r in records])


class TestWindowing:
    def test_identity_stack(self):
        rec = make_record(0.01, 4.2, 1.5, 27, 123)
        windows = window_kpms(features_of([rec]), 1)
        assert len(windows) == 1
        assert np.array_equal(windows[0], [4.2, 1.5, 27.0, 123.0])

    def test_k_equals_n_times_m(self):
        recs = [make_record(0.01 * i, 1.0, 0.0, 10, 0) for i in range(2)]
        windows = window_kpms(features_of(recs), 2)
        assert windows[0].size == 8

    def test_window_count(self):
        recs = [make_record(0.01 * i, 1.0, 0.0, 10, 0) for i in range(10)]
        assert len(window_kpms(features_of(recs), 4)) == 7

    def test_warm_up_yields_nothing(self):
        recs = [make_record(0.01, 1.0, 0.0, 10, 0)]
        assert window_kpms(features_of(recs), 4).shape == (0, 16)

    def test_oldest_first_order(self):
        recs = [make_record(0.01 * (i + 1), float(i), 0.0, 10, 0) for i in range(3)]
        w = window_kpms(features_of(recs), 3)[0]
        assert w[0] == 0.0 and w[4] == 1.0 and w[8] == 2.0

    def test_bad_window_shape(self):
        with pytest.raises(InvalidParamsError):
            KpmWindow(np.zeros(7), 2)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(3)
        layer_sizes = (8, 6, 4, 2)
        weights = [rng.normal(0, 0.5, (o, i))
                   for i, o in zip(layer_sizes, layer_sizes[1:])]
        biases = [rng.normal(0, 0.1, o) for o in layer_sizes[1:]]
        x = rng.normal(0, 1, (10, 8))
        y = rng.integers(0, 2, 10)
        _, gw, gb = loss_and_grads(weights, biases, x, y)
        eps = 1e-6
        for li in range(len(weights)):
            for arr, grad in ((weights[li], gw[li]), (biases[li], gb[li])):
                flat = arr.ravel()
                idxs = rng.choice(flat.size, size=min(12, flat.size), replace=False)
                for k in idxs:
                    orig = flat[k]
                    flat[k] = orig + eps
                    lp, _, _ = loss_and_grads(weights, biases, x, y)
                    flat[k] = orig - eps
                    lm, _, _ = loss_and_grads(weights, biases, x, y)
                    flat[k] = orig
                    numeric = (lp - lm) / (2 * eps)
                    analytic = grad.ravel()[k]
                    diff = abs(numeric - analytic)
                    denom = max(abs(numeric), abs(analytic), 1e-8)
                    # absolute floor covers finite-difference noise on
                    # near-zero gradients
                    assert diff < 1e-8 or diff / denom < 1e-4

    def test_softmax_normalization(self):
        rng = np.random.default_rng(4)
        weights = [rng.normal(0, 1, (16, 8)), rng.normal(0, 1, (2, 16))]
        biases = [rng.normal(0, 1, 16), rng.normal(0, 1, 2)]
        model = ClassifierModel((8, 16, 2), weights, biases,
                                np.zeros(8), np.ones(8))
        probs = model.forward(rng.normal(0, 5, (100, 8)))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)


class TestTraining:
    def test_separable_toy_set_perfect(self):
        windows, labels = toy_dataset()
        result = train_detector(windows, labels, TrainConfig(epochs=30, seed=1))
        assert result.val_accuracy == 1.0
        assert result.train_accuracy == 1.0

    def test_deterministic(self):
        windows, labels = toy_dataset(n_per_class=150)
        a = train_detector(windows, labels, TrainConfig(epochs=5, seed=9))
        b = train_detector(windows, labels, TrainConfig(epochs=5, seed=9))
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.array_equal(wa, wb)
        assert a.val_accuracy == b.val_accuracy

    def test_single_class_rejected(self):
        windows, _ = toy_dataset(n_per_class=200)
        with pytest.raises(DegenerateDatasetError):
            train_detector(windows, [0] * len(windows))

    def test_too_small_rejected(self):
        windows, labels = toy_dataset(n_per_class=50)
        with pytest.raises(DegenerateDatasetError):
            train_detector(windows, labels, TrainConfig(batch_size=128))

    def test_zero_variance_feature_handled(self):
        # mcs column is constant in the toy set; std replaced by 1
        windows, labels = toy_dataset()
        result = train_detector(windows, labels, TrainConfig(epochs=10, seed=2))
        mcs_stds = result.model.feat_std[2::4]
        assert np.all(mcs_stds == 1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_seed_rejected_by_name(self, seed):
        with pytest.raises(InvalidParamsError, match="seed must be a non-negative integer"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, 2.5, 64.0, np.float64(3.0), True, "8", None])
    def test_bad_count_rejected_by_name(self, field, value):
        message = rf"^{field} must be an integer >= 1, not {re.escape(repr(value))}$"
        with pytest.raises(InvalidParamsError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("rate", [0.0, -1e-3])
    def test_non_positive_learning_rate_rejected_by_name(self, rate):
        with pytest.raises(InvalidParamsError, match="^learning_rate must be positive"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", ["0.1", None, True, False, [0.1]])
    def test_non_number_learning_rate_rejected_by_name(self, rate):
        message = rf"^learning_rate must be a real number, not {re.escape(repr(rate))}$"
        with pytest.raises(InvalidParamsError, match=message):
            TrainConfig(learning_rate=rate)

    @pytest.mark.parametrize("rate", [1, np.int64(1), np.float32(1e-3), np.float64(1e-3)])
    def test_real_learning_rate_accepted(self, rate):
        assert TrainConfig(learning_rate=rate).learning_rate == rate

    def test_normalized_inputs_identical_under_affine_feature_transform(self):
        # scaling a raw feature and refitting normalization leaves the
        # normalized training matrix unchanged, hence identical training
        windows, labels = toy_dataset()
        scaled = windows * np.tile([1e3, 1, 1, 1], windows.shape[1] // 4)
        a = train_detector(windows, labels, TrainConfig(epochs=5, seed=3))
        b = train_detector(scaled, labels, TrainConfig(epochs=5, seed=3))
        for wa, wb in zip(a.model.weights, b.model.weights):
            assert np.allclose(wa, wb, atol=1e-10)


def per_array_train_detector(x, labels, config):
    """``train_detector`` as it was before RMSprop ran on one flat parameter
    vector: separate weight, bias and cache arrays per layer, each updated
    through its own temporaries, and one row gather per batch.  The
    reference for the flat step.  Returns (model, train acc, val acc)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(labels, dtype=int)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(y.size)
    x, y = x[order], y[order]
    n_train = int(round(TRAIN_FRACTION * y.size))
    x_train, y_train = x[:n_train], y[:n_train]
    x_val, y_val = x[n_train:], y[n_train:]
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std == 0.0] = 1.0
    xn_train = (x_train - mean) / std
    xn_val = (x_val - mean) / std

    layer_sizes = (x.shape[1], *HIDDEN_SIZES, 2)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    cache_w = [np.zeros_like(w) for w in weights]
    cache_b = [np.zeros_like(b) for b in biases]
    for _ in range(config.epochs):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, config.batch_size):
            idx = perm[start:start + config.batch_size]
            _, gw, gb = loss_and_grads(weights, biases, xn_train[idx], y_train[idx])
            for i in range(len(weights)):
                cache_w[i] = RMS_DECAY * cache_w[i] + (1 - RMS_DECAY) * gw[i] ** 2
                cache_b[i] = RMS_DECAY * cache_b[i] + (1 - RMS_DECAY) * gb[i] ** 2
                weights[i] -= (config.learning_rate * gw[i]
                               / (np.sqrt(cache_w[i]) + RMS_EPSILON))
                biases[i] -= (config.learning_rate * gb[i]
                              / (np.sqrt(cache_b[i]) + RMS_EPSILON))

    model = ClassifierModel(layer_sizes, weights, biases, mean, std)

    def accuracy(xn, yy):
        return float(np.mean(np.argmax(model.forward(xn), axis=1) == yy))

    train_acc = accuracy(xn_train, y_train)
    return model, train_acc, accuracy(xn_val, y_val) if y_val.size else train_acc


class TestFlatRmsprop:
    """RMSprop on one flat parameter vector trains the per-array loop's model
    bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_stack=st.integers(1, 4),
           batch_size=st.integers(2, 200), extra=st.integers(0, 300),
           epochs=st.integers(1, 4), log_scale=st.floats(-3.0, 4.0),
           constant_feature=st.booleans())
    @example(seed=1, n_stack=4, batch_size=128, extra=45, epochs=2, log_scale=2.0,
             constant_feature=True)  # 226 training windows: a last batch of 98
    def test_equals_per_array_loop(self, seed, n_stack, batch_size, extra, epochs,
                                   log_scale, constant_feature):
        n = 2 * batch_size + extra
        # a partial last batch in every epoch
        assume(int(round(TRAIN_FRACTION * n)) % batch_size != 0)
        rng = np.random.default_rng(seed)
        k = 4 * n_stack
        x = rng.normal(0.0, 1.0, (n, k)) * 10.0 ** rng.uniform(log_scale - 2.0, log_scale, k)
        if constant_feature:
            x[:, rng.integers(k)] = 28.0
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        config = TrainConfig(learning_rate=float(10.0 ** rng.uniform(-4.0, -1.0)),
                             epochs=epochs, batch_size=batch_size, seed=seed)
        got = train_detector(x, labels, config)
        model, train_acc, val_acc = per_array_train_detector(x, labels, config)
        pairs = [*zip(got.model.weights, model.weights), *zip(got.model.biases, model.biases),
                 (got.model.feat_mean, model.feat_mean), (got.model.feat_std, model.feat_std)]
        for a, b in pairs:
            assert a.tobytes() == b.tobytes()
        assert (got.train_accuracy, got.val_accuracy) == (train_acc, val_acc)


@pytest.fixture(scope="module")
def toy_model():
    windows, labels = toy_dataset()
    return train_detector(windows, labels, TrainConfig(epochs=30, seed=5)).model


class TestInfer:
    def test_radar_window_detected(self, toy_model):
        w = KpmWindow(np.array([0.0, 100.0, 28.0, 1000.0]), 1)
        det = infer(toy_model, w)
        assert det.radar_present and det.confidence > 0.9

    def test_clean_window_not_detected(self, toy_model):
        w = KpmWindow(np.array([5.0, 0.0, 28.0, 0.0]), 1)
        det = infer(toy_model, w)
        assert not det.radar_present and det.confidence > 0.9

    def test_tie_breaks_to_no_radar(self):
        # zero weights make every input produce (0.5, 0.5)
        model = ClassifierModel((4, 2, 2),
                                [np.zeros((2, 4)), np.zeros((2, 2))],
                                [np.zeros(2), np.zeros(2)],
                                np.zeros(4), np.ones(4))
        det = infer(model, KpmWindow(np.ones(4), 1))
        assert det.radar_present is False
        assert det.confidence == pytest.approx(0.5)

    def test_dimension_mismatch(self, toy_model):
        with pytest.raises(DimensionMismatchError):
            infer(toy_model, KpmWindow(np.zeros(8), 2))

    def test_batch_matches_single(self, toy_model):
        rng = np.random.default_rng(6)
        xs = rng.uniform(0, 10, (1000, 4))
        batch = toy_model.predict_proba(xs)
        for i in range(0, 1000, 97):
            single = toy_model.predict_proba(xs[i])
            assert np.array_equal(batch[i], single[0])

    def test_eval_rule_matches_infer(self, toy_model):
        rng = np.random.default_rng(10)
        xs = rng.uniform(0, 10, (300, 4))
        batch = radar_present(toy_model.predict_proba(xs))
        single = [infer(toy_model, KpmWindow(x, 1)).radar_present for x in xs]
        assert batch.tolist() == single

    def test_inference_latency_under_1ms(self, toy_model):
        import time
        w = KpmWindow(np.array([1.0, 2.0, 10.0, 5.0]), 1)
        infer(toy_model, w)  # warm up
        t0 = time.perf_counter()
        n = 200
        for _ in range(n):
            infer(toy_model, w)
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 1e-3


def per_row_predict_proba(model, x_raw):
    """The per-row loop predict_proba ran before rows were stacked; the
    reference for the batched path.  Each row is a (1, K) matrix."""
    out = []
    for row in model.normalize(np.atleast_2d(x_raw)):
        a = np.atleast_2d(row)
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = a @ w.T + b
            a = np.maximum(z, 0.0) if i < len(model.weights) - 1 else z
        shifted = z - z.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        out.append(exp / exp.sum(axis=1, keepdims=True))
    return np.vstack(out)


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_stack=st.integers(1, 8),
           hidden=st.lists(st.integers(1, 47), min_size=1, max_size=3),
           batch=st.integers(1, 600), log_scale=st.floats(-4.0, 6.0))
    def test_predict_proba_equals_per_row_loop(self, seed, n_stack, hidden,
                                               batch, log_scale):
        rng = np.random.default_rng(seed)
        k = 4 * n_stack
        sizes = (k, *hidden, 2)
        weights = [rng.normal(0.0, np.sqrt(2.0 / i), (o, i))
                   for i, o in zip(sizes, sizes[1:])]
        biases = [rng.normal(0.0, 0.1, o) for o in sizes[1:]]
        scales = 10.0 ** rng.uniform(log_scale - 2.0, log_scale, k)
        model = ClassifierModel(sizes, weights, biases,
                                rng.normal(0.0, 1.0, k) * scales,
                                rng.uniform(0.5, 2.0, k) * scales)
        x = rng.normal(0.0, 3.0, (batch, k)) * scales
        probs = model.predict_proba(x)
        assert probs.shape == (batch, 2)
        assert probs.tobytes() == per_row_predict_proba(model, x).tobytes()
        for i in range(batch):
            assert model.predict_proba(x[i]).tobytes() == probs[i:i + 1].tobytes()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        windows, labels = toy_dataset(n_per_class=150)
        model = train_detector(windows, labels, TrainConfig(epochs=5, seed=7)).model
        path = tmp_path / "detector.npz"
        model.save(path)
        back = ClassifierModel.load(path)
        assert back.layer_sizes == model.layer_sizes
        x = np.random.default_rng(8).uniform(0, 10, (20, 4))
        assert np.array_equal(back.predict_proba(x), model.predict_proba(x))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ClassifierModel.load(tmp_path / "nope.npz")

    def test_npz_without_model_arrays(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, weights=np.ones(3))
        with pytest.raises(InvalidParamsError, match="lacks an array"):
            ClassifierModel.load(path)

    def test_file_that_is_not_npz(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not a model\n")
        with pytest.raises(InvalidParamsError, match="not an npz model file"):
            ClassifierModel.load(path)

    def test_record_features_order(self):
        rec = KpmRecord(0.01, 3.5, 2.5, 15, 777, 20.0)
        assert np.array_equal(record_features(rec), [3.5, 2.5, 15.0, 777.0])
