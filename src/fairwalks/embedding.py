"""Skip-gram training with negative sampling, from walk corpora.

Plain numpy SGD: for every (center, context) pair within the window the
positive logit is pushed up and k sampled negative logits are pushed
down. Negatives are drawn from the unigram distribution raised to 0.75;
draws equal to the pair's context token are masked out.

Each epoch streams the pairs of the shuffled walks in fixed-size
mini-batches. Every batch is gathered, differentiated and scattered
back as one step, so a run is single-threaded and bit-reproducible for
a fixed seed.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from fairwalks.sampling import AliasTable
from fairwalks.seeds import rng_for

NEGATIVE_DISTRIBUTION_POWER = 0.75
FINAL_LR_FRACTION = 0.01
# pairs gathered from the padded corpus at a time; bounds the stream's memory
BLOCK_PAIRS = 1 << 13


class TrainingDiverged(RuntimeError):
    """NaN or Inf appeared in the parameters during training."""


@dataclass
class EmbeddingMatrix:
    """Trained node vectors plus the context-side vectors and run metadata.

    ``vectors`` (the input side) is the embedding used downstream.
    """

    vectors: np.ndarray
    context_vectors: np.ndarray
    meta: dict

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]


def embedding_meta(dim, window, negatives, epochs, learning_rate, seed) -> dict:
    """The run description ``train`` records, minus the per-epoch losses.

    A cache hit rebuilds it from the config, so warm and cold reports match.
    """
    return {
        "dim": dim,
        "window": window,
        "negatives": negatives,
        "epochs": epochs,
        "learning_rate": learning_rate,
        "final_lr_fraction": FINAL_LR_FRACTION,
        "seed": seed,
        "negative_power": NEGATIVE_DISTRIBUTION_POWER,
    }


def _flatten(walks) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(walks), dtype=np.int64)


def build_frequency_table(walks, node_count: int) -> np.ndarray:
    """Occurrence count of every node over the corpus."""
    tokens = _flatten(walks)
    if len(tokens) == 0:
        raise ValueError("corpus is empty")
    if tokens.min() < 0 or tokens.max() >= node_count:
        raise ValueError(f"corpus tokens must lie in [0, {node_count})")
    return np.bincount(tokens, minlength=node_count)


def negative_distribution(counts, power: float = NEGATIVE_DISTRIBUTION_POWER) -> np.ndarray:
    """Sampling weights proportional to count**power, normalized."""
    weights = np.power(np.asarray(counts, dtype=np.float64), power)
    total = weights.sum()
    if total <= 0:
        raise ValueError("all counts are zero")
    return weights / total


def sgns_pair_loss(center, context, negatives):
    """Loss and exact gradients for one (center, context, negatives) triple.

    loss = -log sigma(center . context) - sum_i log sigma(-center . neg_i)

    Returns (loss, grad_center, grad_context, grad_negatives).
    """
    center = np.asarray(center, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    negatives = np.asarray(negatives, dtype=np.float64).reshape(-1, len(center))

    pos_dot = center @ context
    neg_dots = negatives @ center
    # softplus(x) = log(1 + e^x) via logaddexp keeps saturated pairs finite
    pos_loss = np.logaddexp(0.0, -pos_dot)
    neg_loss = np.logaddexp(0.0, neg_dots)
    loss = pos_loss + neg_loss.sum()

    # sigmoid(x) = exp(x - softplus(x)), exact at both tails
    g_pos = -np.exp(-pos_dot - pos_loss)
    g_negs = np.exp(neg_dots - neg_loss)
    grad_center = g_pos * context + g_negs @ negatives
    grad_context = g_pos * center
    grad_negatives = g_negs[:, None] * center[None, :]
    return float(loss), grad_center, grad_context, grad_negatives


class PairStream:
    """The (center, context) pairs of a corpus, batched in any walk order.

    The corpus is padded once into a walks x longest-walk array. A
    position template lists, for the longest walk, every pair within the
    window: offset by offset, first each token with the one ``offset``
    later, then the reverse direction. A walk's pairs are the template
    entries that fit inside it, in template order.
    """

    def __init__(self, walks, window: int):
        self.lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
        self.width = int(self.lengths.max())
        self.padded = np.zeros((len(walks), self.width), dtype=np.int64)
        self.padded[np.arange(self.width) < self.lengths[:, None]] = _flatten(walks)
        centers, contexts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for offset in range(1, min(window, self.width - 1) + 1):
            left = np.arange(self.width - offset)
            centers += [left, left + offset]
            contexts += [left + offset, left]
        self.center_pos = np.concatenate(centers)
        self.context_pos = np.concatenate(contexts)
        # shortest walk that holds each template pair
        self.needs = np.maximum(self.center_pos, self.context_pos) + 1
        offsets = np.arange(1, window + 1)
        self.pairs = int(2 * np.clip(self.lengths[:, None] - offsets, 0, None).sum())

    def batches(self, order, batch_size: int):
        """Yield (centers, contexts) of the walks in ``order``, ``batch_size``
        pairs at a time; only the last batch may be shorter."""
        block = max(1, BLOCK_PAIRS // max(len(self.needs), 1))
        carry_c = carry_x = np.empty(0, dtype=np.int64)
        for start in range(0, len(order), block):
            ids = order[start : start + block]
            rows = self.padded[ids]
            centers = rows[:, self.center_pos]
            contexts = rows[:, self.context_pos]
            lengths = self.lengths[ids]
            if lengths.min() < self.width:
                fits = self.needs <= lengths[:, None]
                centers, contexts = centers[fits], contexts[fits]
            centers = np.concatenate([carry_c, centers.ravel()])
            contexts = np.concatenate([carry_x, contexts.ravel()])
            full = len(centers) - len(centers) % batch_size
            for s in range(0, full, batch_size):
                yield centers[s : s + batch_size], contexts[s : s + batch_size]
            carry_c, carry_x = centers[full:], contexts[full:]
        if len(carry_c):
            yield carry_c, carry_x


def scatter_rows(params, rows, grads, scale, bins):
    """``params[rows] -= scale * grads`` with repeated rows summed first.

    One ``np.bincount`` over compact row ids (``bins`` is scratch space of
    ``grads``' shape) keeps the cost at O(len(rows) * dim) whatever the
    number of rows in ``params``.
    """
    dim = params.shape[1]
    unique, inverse = np.unique(rows, return_inverse=True)
    np.add((inverse * dim)[:, None], np.arange(dim), out=bins)
    summed = np.bincount(bins.ravel(), weights=grads.ravel(), minlength=len(unique) * dim)
    summed *= -scale
    summed = summed.reshape(len(unique), dim)
    summed += params[unique]
    params[unique] = summed


class _Trainer:
    """SGD state plus the batch buffers, allocated once per ``train``.

    Reused buffers matter: fresh half-megabyte temporaries in every batch
    can be handed back to the OS by the allocator and re-faulted on the
    next batch, which measured 2.3x slower on the same batches.
    """

    def __init__(self, w_in, w_out, table, negatives, lr0, total_pairs, batch_size):
        self.w_in = w_in
        self.w_out = w_out
        self.table = table
        self.negatives = negatives
        self.lr0 = lr0
        self.total_pairs = max(total_pairs, 1)
        self.pairs_done = 0
        b, k, d = batch_size, negatives, w_in.shape[1]
        # per pair: its context, then its k negatives (the w_out rows it touches)
        self.out_rows = np.empty((b, k + 1), dtype=np.int64)
        self.live = np.ones((b, k + 1))
        self.center_vec = np.empty((b, d))
        self.out_vec = np.empty((b, k + 1, d))
        self.logits = np.empty((b, k + 1))
        self.softplus = np.empty((b, k + 1))
        self.grad_in = np.empty((b, d))
        self.bins = np.empty((b * (k + 1), d), dtype=np.int64)
        # -1 flips the positive logit: every column's loss is softplus(sign * logit)
        self.sign = np.ones(k + 1)
        self.sign[0] = -1.0

    def process(self, centers, contexts, rng):
        """One mini-batch of SGD updates; returns the summed pair loss."""
        b = len(centers)
        frac = min(self.pairs_done / self.total_pairs, 1.0)
        lr = self.lr0 * (1.0 - frac * (1.0 - FINAL_LR_FRACTION))
        neg = self.table.draw(rng, size=(b, self.negatives))
        rows = self.out_rows[:b]
        rows[:, 0] = contexts
        rows[:, 1:] = neg
        live = self.live[:b]
        np.not_equal(neg, contexts[:, None], out=live[:, 1:])

        c_vec = np.take(self.w_in, centers, axis=0, out=self.center_vec[:b])
        o_vec = np.take(self.w_out, rows, axis=0, out=self.out_vec[:b])
        # z = -pos_dot, +neg_dot; loss = sum softplus(z); dloss/dz = sigmoid(z)
        z = np.einsum("bjd,bd->bj", o_vec, c_vec, out=self.logits[:b])
        z *= self.sign
        softplus = np.logaddexp(0.0, z, out=self.softplus[:b])
        loss = float(np.vdot(softplus, live))
        # dloss/dz = sigmoid(z) = exp(z - softplus(z)), as in sgns_pair_loss
        coef = np.exp(np.subtract(z, softplus, out=z), out=z)
        coef *= live
        coef *= self.sign

        grad_in = np.einsum("bj,bjd->bd", coef, o_vec, out=self.grad_in[:b])
        # o_vec is spent: its buffer takes the w_out gradients
        grad_out = np.multiply(coef[:, :, None], c_vec[:, None, :], out=o_vec)
        scatter_rows(self.w_in, centers, grad_in, lr, self.bins[:b])
        scatter_rows(
            self.w_out, rows.ravel(), grad_out.reshape(-1, grad_out.shape[2]), lr,
            self.bins[: rows.size],
        )
        self.pairs_done += b
        return loss


def train(
    walks,
    node_count: int,
    dim: int = 64,
    window: int = 5,
    negatives: int = 5,
    epochs: int = 5,
    learning_rate: float = 0.025,
    seed: int = 0,
    batch_size: int = 1024,
) -> EmbeddingMatrix:
    """Train node embeddings over a walk corpus.

    Each epoch visits the walks in a seeded shuffle and streams their
    pairs through batches of ``batch_size`` (the last batch of an epoch
    may be shorter). The learning rate decays linearly from
    ``learning_rate`` to 1% of it across all scheduled pairs. A fixed
    seed gives bit-identical parameters.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    walks = [w for w in walks if len(w) > 0]
    if not walks:
        raise ValueError("corpus is empty")

    counts = build_frequency_table(walks, node_count)
    table = AliasTable(negative_distribution(counts))
    stream = PairStream(walks, window)

    init_rng = rng_for(seed, "init")
    w_in = (init_rng.random((node_count, dim)) - 0.5) / dim
    w_out = np.zeros((node_count, dim), dtype=np.float64)

    # cap batches at the vocabulary size: a node then appears O(1) times per
    # batch and the accumulated stale-gradient step stays close to per-pair SGD
    batch_size = max(8, min(batch_size, node_count))
    total_pairs = stream.pairs * max(epochs, 1)
    trainer = _Trainer(w_in, w_out, table, negatives, learning_rate, total_pairs, batch_size)

    epoch_losses = []
    for epoch in range(epochs):
        order = rng_for(seed, "epoch", epoch).permutation(len(walks))
        rng = rng_for(seed, "sgd", epoch)
        loss_sum = 0.0
        for centers, contexts in stream.batches(order, batch_size):
            loss_sum += trainer.process(centers, contexts, rng)
        epoch_losses.append(loss_sum / max(stream.pairs, 1))
        if not np.isfinite(w_in).all() or not np.isfinite(w_out).all():
            raise TrainingDiverged(
                f"non-finite parameters after epoch {epoch}; "
                f"lower the learning rate (currently {learning_rate})"
            )

    meta = embedding_meta(dim, window, negatives, epochs, learning_rate, seed)
    meta["epoch_mean_loss"] = epoch_losses
    return EmbeddingMatrix(w_in, w_out, meta)


def save_embeddings(matrix: EmbeddingMatrix, path, tokens=None):
    """Text matrix: header ``n dim``, then ``token v1 ... v_dim`` rows."""
    n, dim = matrix.vectors.shape
    if tokens is None:
        tokens = [str(i) for i in range(n)]
    with open(path, "w") as f:
        f.write(f"{n} {dim}\n")
        for tok, row in zip(tokens, matrix.vectors):
            f.write(tok + " " + " ".join(repr(float(x)) for x in row) + "\n")


def load_embeddings(path):
    """Returns (tokens, vectors) from the text matrix format."""
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header")
        n, dim = int(header[0]), int(header[1])
        tokens = []
        rows = []
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(f"{path}: row has {len(parts) - 1} values, expected {dim}")
            tokens.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    if len(tokens) != n:
        raise ValueError(f"{path}: header claims {n} rows, found {len(tokens)}")
    return tokens, np.array(rows, dtype=np.float64)
