"""Skip-gram training with negative sampling, from walk corpora.

Plain numpy SGD: each center draws its window uniformly from 1..window,
as word2vec does; for every (center, context) pair within it the
positive logit is pushed up and k sampled negative logits are pushed
down. Negatives are drawn from the unigram distribution raised to 0.75,
k per chunk of ``NEGATIVE_CHUNK`` consecutive pairs of a batch, which all
meet the same k; a draw equal to a pair's context token is masked out
for that pair.

The corpus is one int64 array, a walk per row and ``walks.PAD`` past its
end. Each epoch streams the pairs of the shuffled walks in fixed-size
mini-batches. Every batch is gathered, differentiated and scattered
back as one step, so a run is single-threaded and bit-reproducible for
a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from fairwalks.graph import atomic_writer
from fairwalks.sampling import AliasTable
from fairwalks.seeds import rng_for
from fairwalks.walks import PAD

NEGATIVE_DISTRIBUTION_POWER = 0.75
FINAL_LR_FRACTION = 0.01
# pairs gathered from the padded corpus at a time; bounds the stream's memory
BLOCK_PAIRS = 1 << 13
# consecutive pairs of a batch that share one set of k negative draws
NEGATIVE_CHUNK = 10


class TrainingDiverged(RuntimeError):
    """An epoch's mean loss or the parameters blew up during training."""


@dataclass
class EmbeddingMatrix:
    """What ``train`` returns: the input-side vectors, the context-side
    vectors and the run metadata.

    ``vectors`` is the embedding used downstream; ``pipeline.execute``
    keeps (and caches) only it.
    """

    vectors: np.ndarray
    context_vectors: np.ndarray
    meta: dict


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
        "negatives_shared_by": NEGATIVE_CHUNK,
        "window_sampled": True,
    }


def build_frequency_table(paths, node_count: int) -> np.ndarray:
    """Occurrence count of every node over the padded corpus ``paths``."""
    tokens = paths[paths != PAD]
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


def softplus(z, out, spare):
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), finite at both tails, into ``out``."""
    np.copysign(z, -1.0, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.add(out, np.maximum(z, 0.0, out=spare), out=out)


class PairStream:
    """The (center, context) pairs of a padded corpus under drawn windows,
    batched in any walk order.

    A position template lists, for the longest walk, every pair within the
    window: offset by offset, first each token with the one ``offset``
    later, then the reverse direction. Given a reach per (walk, position),
    a walk's pairs are the template entries that fit inside it and whose
    offset is at most their center's reach, in template order.
    """

    def __init__(self, paths, window: int):
        self.padded = paths
        self.window = window
        self.lengths = np.count_nonzero(paths != PAD, axis=1)
        self.width = int(self.lengths.max())
        # no walk holds an offset past width - 1, so no reach need exceed it
        self.cap = max(min(window, self.width - 1), 0)
        self.reach_type = np.min_scalar_type(self.cap)
        centers, contexts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        for offset in range(1, self.cap + 1):
            left = np.arange(self.width - offset)
            centers += [left, left + offset]
            contexts += [left + offset, left]
        self.center_pos = np.concatenate(centers)
        self.context_pos = np.concatenate(contexts)
        self.offset = np.abs(self.center_pos - self.context_pos).astype(self.reach_type)
        # shortest walk that holds each template pair
        self.needs = np.maximum(self.center_pos, self.context_pos) + 1

    def draw(self, rng):
        """A reach per (walk, position), uniform in 1..window as word2vec draws
        it, capped at the longest offset any walk holds."""
        reach = rng.integers(1, self.window + 1, size=(len(self.padded), self.width))
        return np.minimum(reach, self.cap, out=reach).astype(self.reach_type)

    def count(self, reach) -> int:
        """The pairs ``batches`` yields under ``reach``: min(r, p) + min(r, L - 1 - p)
        at each position p of a walk of length L."""
        pos = np.arange(self.width)
        ahead = self.lengths[:, None] - 1 - pos
        inside = ahead >= 0
        return int((np.minimum(reach, pos)[inside] + np.minimum(reach, ahead)[inside]).sum())

    def batches(self, order, batch_size: int, reach):
        """Yield (centers, contexts) of the walks in ``order`` under ``reach``,
        ``batch_size`` pairs at a time; only the last batch may be shorter."""
        block = max(1, BLOCK_PAIRS // max(len(self.needs), 1))
        carry_c = carry_x = np.empty(0, dtype=np.int64)
        for start in range(0, len(order), block):
            ids = order[start : start + block]
            keep = reach[ids][:, self.center_pos] >= self.offset
            lengths = self.lengths[ids]
            if lengths.min() < self.width:
                keep &= self.needs <= lengths[:, None]
            walk, entry = np.nonzero(keep)
            walk = ids[walk]
            centers = np.concatenate([carry_c, self.padded[walk, self.center_pos[entry]]])
            contexts = np.concatenate([carry_x, self.padded[walk, self.context_pos[entry]]])
            full = len(centers) - len(centers) % batch_size
            for s in range(0, full, batch_size):
                yield centers[s : s + batch_size], contexts[s : s + batch_size]
            carry_c, carry_x = centers[full:], contexts[full:]
        if len(carry_c):
            yield carry_c, carry_x


def scatter_rows(params, rows, grads, scale, slot, cells, bins):
    """``params[rows] -= scale * grads`` with repeated rows summed first.

    Each entry of ``rows`` writes its position into ``slot`` (one int64 per
    row of ``params``); the surviving positions pick one entry per distinct
    row, which numbers the rows without a sort. ``bins`` (int64, ``grads``'
    shape) takes row ``id`` of ``cells`` (``id * dim + arange(dim)``), so
    one ``np.bincount`` sums every (row, column) in input order at a cost
    of O(len(rows) * dim), whatever ``len(params)``.
    """
    dim = params.shape[1]
    order = np.arange(len(rows))
    slot[rows] = order
    unique = rows[slot[rows] == order]
    slot[unique] = np.arange(len(unique))
    # ids are in range by construction: "clip" skips the copy "raise" makes of out
    np.take(cells, slot[rows], axis=0, out=bins, mode="clip")
    summed = np.bincount(bins.ravel(), weights=grads.ravel(), minlength=len(unique) * dim)
    summed *= -scale
    summed = summed.reshape(len(unique), dim)
    summed += params[unique]
    params[unique] = summed


class _Trainer:
    """SGD state plus the batch buffers, allocated once per ``train``.

    ``params`` stacks ``w_in`` over ``w_out``: a batch reads its rows with
    one gather and writes them with one scatter. Each chunk of
    ``NEGATIVE_CHUNK`` consecutive pairs of a batch shares its k negative
    draws, so a batch of b pairs touches 2b + ceil(b/c)k rows and its
    negative logits and gradients are batched (c x d)(d x k) matmuls over
    a zero-padded (m, c, d) copy of the centers. Reused buffers matter:
    fresh half-megabyte temporaries in every batch can be handed back to
    the OS and re-faulted on the next batch, measured 2.3x slower.
    """

    def __init__(self, params, table, negatives, lr0, total_pairs, batch_size):
        self.params = params
        self.n = len(params) // 2
        self.w_in, self.w_out = params[: self.n], params[self.n :]
        self.table = table
        self.negatives = negatives
        self.lr0 = lr0
        self.total_pairs = max(total_pairs, 1)
        self.pairs_done = 0
        b, k, d, c = batch_size, negatives, params.shape[1], NEGATIVE_CHUNK
        m = -(-b // c)
        # the b centers, then the b contexts and the m * k negatives, offset by n
        rows = 2 * b + m * k
        self.rows = np.empty(rows, dtype=np.int64)
        self.vecs = np.empty((rows, d))
        self.slot = np.empty(len(params), dtype=np.int64)
        self.cells = np.arange(rows * d).reshape(rows, d)
        self.bins = np.empty((rows, d), dtype=np.int64)
        self.padded_centers = np.zeros((m, c, d))
        self.grad_in = np.empty((m, c, d))
        self.padded_contexts = np.empty(m * c, dtype=np.int64)
        # rows: logits, loss weights, softplus, scratch; each holds a positive
        # logit's entry per pair, then k negative ones per pair of the m chunks,
        # the last chunk padded to c pairs
        self.per_logit = np.empty((4, b + m * c * k))

    def process(self, centers, contexts, rng):
        """One mini-batch of SGD updates; returns the summed pair loss."""
        b, k, d, c = len(centers), self.negatives, self.params.shape[1], NEGATIVE_CHUNK
        m = -(-b // c)
        frac = min(self.pairs_done / self.total_pairs, 1.0)
        lr = self.lr0 * (1.0 - frac * (1.0 - FINAL_LR_FRACTION))
        neg = self.table.draw(rng, size=(m, k))
        rows = self.rows[: 2 * b + m * k]
        rows[:b] = centers
        np.add(contexts, self.n, out=rows[b : 2 * b])
        np.add(neg.ravel(), self.n, out=rows[2 * b :])
        # z = -pos_dot, +neg_dot; loss = sum |weight| softplus(z); dloss/dz =
        # weight sigmoid(z), weight -1 for a positive; pair i meets the negatives
        # of chunk i // c, unless one is its context; padding pairs meet none
        z, weight, sp, spare = self.per_logit[:, : b + m * c * k]
        weight[:b] = -1.0
        ctx = self.padded_contexts[: m * c]
        ctx[:b] = contexts
        live = weight[b:].reshape(m, c, k)
        np.not_equal(neg[:, None, :], ctx.reshape(m, c, 1), out=live)
        live.reshape(m * c, k)[b:] = 0.0

        # rows lie in [0, 2n): the corpus was checked and negatives come from the table
        vecs = np.take(self.params, rows, axis=0, out=self.vecs[: len(rows)], mode="clip")
        c_vec, x_vec = vecs[:b], vecs[b : 2 * b]
        n_vec = vecs[2 * b :].reshape(m, k, d)
        padded = self.padded_centers[:m]
        padded_rows = padded.reshape(m * c, d)
        padded_rows[:b] = c_vec
        padded_rows[b:] = 0.0
        np.einsum("bd,bd->b", c_vec, x_vec, out=z[:b])
        np.negative(z[:b], out=z[:b])
        np.matmul(padded, n_vec.transpose(0, 2, 1), out=z[b:].reshape(m, c, k))
        softplus(z, sp, spare)
        loss = float(np.vdot(sp, np.abs(weight, out=spare)))
        # sigmoid(z) = exp(z - softplus(z)), as in sgns_pair_loss
        coef = np.exp(np.subtract(z, sp, out=z), out=z)
        coef *= weight
        coef_pos, coef_neg = coef[:b], coef[b:].reshape(m, c, k)

        # the spent vectors become the gradients of the rows they were read from
        grad_in = np.matmul(coef_neg, n_vec, out=self.grad_in[:m]).reshape(m * c, d)
        np.matmul(coef_neg.transpose(0, 2, 1), padded, out=n_vec)
        np.multiply(x_vec, coef_pos[:, None], out=c_vec)
        c_vec += grad_in[:b]
        np.multiply(padded_rows[:b], coef_pos[:, None], out=x_vec)
        scatter_rows(self.params, rows, vecs, lr, self.slot, self.cells, self.bins[: len(rows)])
        self.pairs_done += b
        return loss


def check_training(dim, window, negatives, epochs, learning_rate):
    """Raise ValueError unless dim >= 2, window >= 1, negatives >= 0,
    epochs >= 1 and learning_rate is finite and > 0 (no epochs, or a zero
    rate, would return the untrained initialization)."""
    for name, value, least in (
        ("dim", dim, 2), ("window", window, 1), ("negatives", negatives, 0), ("epochs", epochs, 1),
    ):
        if not value >= least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate!r}")


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
    """Train node embeddings over the padded walk corpus ``walks``.

    ``walks`` is a ``WalkCorpus.paths`` array (``walks.pad_walks`` makes
    one from lists) with at least one walk. Each epoch draws every
    position's window uniformly from 1..``window``, visits the walks in a
    seeded shuffle and streams their pairs through batches of
    ``batch_size`` (the last batch of an epoch may be shorter). The
    learning rate decays linearly from ``learning_rate`` to 1% of it
    across the pairs of all epochs, counted before the first. A fixed
    seed gives bit-identical parameters. An epoch whose mean loss is not
    finite or exceeds ten times an untrained pair's (k + 1) ln 2, or that
    leaves a parameter non-finite, raises ``TrainingDiverged``.
    """
    check_training(dim, window, negatives, epochs, learning_rate)

    counts = build_frequency_table(walks, node_count)
    table = AliasTable(negative_distribution(counts))
    stream = PairStream(walks, window)

    params = np.zeros((2 * node_count, dim))
    params[:node_count] = (rng_for(seed, "init").random((node_count, dim)) - 0.5) / dim

    # cap batches at the vocabulary size: a node then appears O(1) times per
    # batch and the accumulated stale-gradient step stays close to per-pair SGD
    batch_size = max(8, min(batch_size, node_count))
    # each epoch's windows are drawn twice, to count its pairs now and to
    # stream them later, so one epoch's windows are held at a time
    epoch_pairs = [stream.count(stream.draw(rng_for(seed, "window", epoch)))
                   for epoch in range(epochs)]
    trainer = _Trainer(params, table, negatives, learning_rate, sum(epoch_pairs), batch_size)
    limit = 10 * (negatives + 1) * np.log(2)

    epoch_losses = []
    for epoch in range(epochs):
        order = rng_for(seed, "epoch", epoch).permutation(len(walks))
        reach = stream.draw(rng_for(seed, "window", epoch))
        rng = rng_for(seed, "sgd", epoch)
        loss_sum = 0.0
        for centers, contexts in stream.batches(order, batch_size, reach):
            loss_sum += trainer.process(centers, contexts, rng)
        epoch_losses.append(loss_sum / max(epoch_pairs[epoch], 1))
        if not epoch_losses[-1] <= limit or not np.isfinite(params).all():
            raise TrainingDiverged(f"epoch {epoch} diverged (mean loss {epoch_losses[-1]:.3g}, "
                                   f"limit {limit:.3g}); lower the learning rate "
                                   f"(currently {learning_rate})")

    meta = embedding_meta(dim, window, negatives, epochs, learning_rate, seed)
    meta["epoch_mean_loss"] = epoch_losses
    return EmbeddingMatrix(trainer.w_in, trainer.w_out, meta)


def save_embeddings(vectors, path, tokens):
    """Text matrix of the (n, dim) ``vectors``: header ``n dim``, then
    ``token v1 ... v_dim`` rows, one token per row."""
    n, dim = vectors.shape
    with atomic_writer(path) as f:
        f.write(f"{n} {dim}\n")
        for tok, row in zip(tokens, vectors.tolist()):
            f.write(tok + " " + " ".join(map(repr, row)) + "\n")


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
