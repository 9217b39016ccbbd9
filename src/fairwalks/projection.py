"""Two-component PCA, for plot-ready projections."""

import numpy as np


def pca_2d(vectors, seed: int = 0) -> np.ndarray:
    """Project rows of ``vectors`` onto their top two principal components.

    The components are eigenvectors of the d x d covariance, each signed so
    that its largest-magnitude coordinate is positive. The projection is
    deterministic; ``seed`` is accepted for call compatibility only.
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
    """CSV ``node_id,x,y,group`` for external plotting."""
    with open(path, "w") as f:
        f.write("node_id,x,y,group\n")
        for tok, (x, y), grp in zip(tokens, coords, groups):
            f.write(f"{tok},{float(x)!r},{float(y)!r},{grp}\n")
