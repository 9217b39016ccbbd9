"""Two-component PCA, for plot-ready projections."""

import csv

import numpy as np

from fairwalks.graph import atomic_writer


def pca_2d(vectors) -> np.ndarray:
    """Project rows of ``vectors`` onto their top two principal components.

    The components are eigenvectors of the d x d covariance, each signed so
    that its largest-magnitude coordinate is positive, so the projection is
    deterministic.
    """
    x = np.asarray(vectors, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / max(len(x) - 1, 1)
    # eigh sorts eigenvalues ascending; a 1-d input gets a zero second axis
    top = np.zeros((x.shape[1], 2))
    top[:, : min(x.shape[1], 2)] = np.linalg.eigh(cov)[1][:, ::-1][:, :2]
    top *= np.sign(top[np.abs(top).argmax(axis=0), [0, 1]])
    return centered @ top


def write_projection_csv(path, tokens, coords, groups):
    """CSV ``node_id,x,y,group`` for external plotting, fields quoted as needed."""
    xs, ys = (np.asarray(coords)[:, j].tolist() for j in (0, 1))
    with atomic_writer(path) as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(("node_id", "x", "y", "group"))
        out.writerows(zip(tokens, map(repr, xs), map(repr, ys), groups))
