"""Coefficient field A(x) on the grid: analytic sampling, SPD validation,
ellipticity bounds, voxel IO and the atomic writers of every output file.

Isotropic data ``a(x) I`` is stored as one scalar per grid point.  Other
data is stored packed symmetric: diagonal entries first, then the strict
upper triangle row by row, giving ``d (d + 1) / 2`` components per grid
point.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridSpec, coordinate_grid
from .transforms import GridField


class MaterialDataError(ValueError):
    """Invalid coefficient data (non-finite, non-SPD values)."""


class VoxelFormatError(MaterialDataError):
    """Malformed voxel file: bad header, even shape, or size mismatch."""


def sym_component_pairs(dim):
    """Index pairs of the packed symmetric storage, diagonal first."""
    pairs = [(a, a) for a in range(dim)]
    pairs += [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    return pairs


def _pack(matrices, dim):
    """(d, d, *N) -> (nsym, *N)."""
    return np.stack([matrices[a, b] for a, b in sym_component_pairs(dim)])


def _unpack(packed, dim):
    """(nsym, *N) -> (d, d, *N)."""
    grid_shape = packed.shape[1:]
    full = np.empty((dim, dim) + grid_shape)
    for comp, (a, b) in enumerate(sym_component_pairs(dim)):
        full[a, b] = packed[comp]
        full[b, a] = packed[comp]
    return full


def _eigen_range(packed, dim):
    """Pointwise min/max eigenvalues of packed tensors (d >= 2), by one
    batched LAPACK call, which scales each matrix into range itself."""
    eigs = np.linalg.eigvalsh(np.moveaxis(_unpack(packed, dim), (0, 1), (-2, -1)))
    return eigs[..., 0], eigs[..., -1]


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric positive-definite d x d tensor per grid point.

    ``data`` holds one representation: scalars ``(*N)`` for isotropic data
    ``a(x) I``, packed components ``(d(d+1)/2, *N)`` otherwise.  Packed
    input whose off-diagonals are 0 and whose diagonals are equal (every
    1-D field) is stored as scalars.  ``components`` and ``full_tensors``
    expand on demand; the solvers use the storage through :func:`contract`.
    """

    spec: GridSpec
    data: np.ndarray
    c_A: float = field(init=False)
    C_A: float = field(init=False)

    def __post_init__(self):
        d = self.spec.dim
        data = np.ascontiguousarray(self.data, dtype=float)
        packed = (d * (d + 1) // 2,) + self.spec.shape
        if data.shape not in (self.spec.shape, packed):
            raise MaterialDataError(
                f"coefficient data shape {data.shape} != expected "
                f"{packed} (packed) or {self.spec.shape} (isotropic)"
            )
        if not np.all(np.isfinite(data)):
            bad = np.argwhere(~np.isfinite(data))[0]
            raise MaterialDataError(f"non-finite coefficient at {tuple(bad)}")
        if (
            data.shape == packed
            and np.all(data[d:] == 0)
            and np.all(data[1:d] == data[0])
        ):
            data = data[0].copy()  # a copy, so the packed input is not kept
        if data.shape == self.spec.shape:
            lam_min = lam_max = data
        else:
            lam_min, lam_max = _eigen_range(data, d)
        c_A = float(np.min(lam_min))
        if c_A <= 0:
            slot = np.unravel_index(int(np.argmin(lam_min)), self.spec.shape)
            raise MaterialDataError(
                f"coefficient tensor not positive definite at grid slot {slot} "
                f"(min eigenvalue {c_A:.6g})"
            )
        C_A = float(np.max(lam_max))
        if C_A < np.finfo(float).tiny:
            # 1 / C_A overflows, and the solvers' Green operators divide by it.
            raise MaterialDataError(
                f"coefficient scale C_A = {C_A:.6g} is subnormal (below "
                f"{np.finfo(float).tiny:.6g}); rescale the coefficients"
            )
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "c_A", c_A)
        object.__setattr__(self, "C_A", C_A)

    @property
    def rho_A(self):
        return self.C_A / self.c_A

    @property
    def components(self):
        """Packed symmetric ``(d(d+1)/2, *N)`` components, expanded from
        scalars for isotropic data."""
        if self.data.ndim > self.spec.dim:
            return self.data
        d = self.spec.dim
        comp = np.zeros((d * (d + 1) // 2,) + self.spec.shape)
        comp[:d] = self.data
        return comp

    @property
    def full_tensors(self):
        """Expanded ``(d, d, *N)`` copy of the coefficient tensors."""
        return _unpack(self.components, self.spec.dim)

    @classmethod
    def from_matrices(cls, spec, matrices):
        matrices = np.asarray(matrices, dtype=float)
        expected = (spec.dim, spec.dim) + spec.shape
        if matrices.shape != expected:
            raise MaterialDataError(
                f"matrices shape {matrices.shape} != expected {expected}"
            )
        sym_err = np.max(np.abs(matrices - np.swapaxes(matrices, 0, 1)))
        if sym_err > 1e-12 * max(1.0, float(np.max(np.abs(matrices)))):
            raise MaterialDataError(f"tensors not symmetric (residual {sym_err:.3e})")
        return cls(spec, _pack(matrices, spec.dim))

    @classmethod
    def isotropic(cls, spec, scalars):
        scalars = np.asarray(scalars, dtype=float)
        if scalars.shape != spec.shape:
            raise MaterialDataError(
                f"scalar field shape {scalars.shape} != grid shape {spec.shape}"
            )
        return cls(spec, scalars)


def sample_analytic(f, spec: GridSpec) -> CoefficientField:
    """Sample a pointwise tensor function at the grid points, one call per
    point in storage order (the path for user callables; built-in families
    sample on the whole coordinate grid at once).

    ``f`` maps a point to a symmetric d x d matrix, or to a scalar
    (interpreted as an isotropic tensor a(x) * I).  Scalars are stored as
    they come until the first matrix sample, which expands the points
    before it to ``a(x) * I``.
    """
    d = spec.dim
    scalars = np.empty(spec.total)
    matrices = None
    eye = np.eye(d)
    for j, x in enumerate(coordinate_grid(spec).reshape(d, -1).T):
        val = np.asarray(f(x), dtype=float)
        if val.ndim == 0 and matrices is None:
            scalars[j] = val
            continue
        if val.ndim == 0:
            val = float(val) * eye
        if val.shape != (d, d):
            raise MaterialDataError(
                f"sampler returned shape {val.shape} at grid point {tuple(x.tolist())}"
            )
        if matrices is None:
            matrices = np.empty((d, d, spec.total))
            matrices[:, :, :j] = eye[:, :, np.newaxis] * scalars[:j]
        matrices[:, :, j] = val
    if matrices is None:
        return CoefficientField.isotropic(spec, scalars.reshape(spec.shape))
    return CoefficientField.from_matrices(spec, matrices.reshape((d, d) + spec.shape))


def contract(
    data: np.ndarray,
    values: np.ndarray,
    out: np.ndarray | None = None,
    row: np.ndarray | None = None,
) -> np.ndarray:
    """Pointwise ``A u`` from coefficient storage: ``data`` holds scalars
    ``(*N)`` or packed components ``(d(d+1)/2, *N)`` as in
    ``CoefficientField.data``, ``values`` is ``(d, *N)``.  The result goes
    into ``out`` when given (a fresh array otherwise), which for scalar
    data may be ``values`` itself.

    The scalar case is one multiply, which equals the full-tensor sum
    ``a u_a + 0 u_b`` bit for bit.  The packed case adds the off-diagonal
    products to the diagonal ones through one ``(*N)`` scratch row: ``row``
    when given, so that a caller in a loop allocates nothing, else a fresh
    one.
    """
    if data.ndim < values.ndim:
        return np.multiply(data, values, out=out)
    if out is not None and np.may_share_memory(out, values):
        raise ValueError("packed contraction cannot write into its input")
    d = values.shape[0]
    out = np.multiply(data[:d], values, out=out)
    if row is None:
        row = np.empty_like(values[0])
    for comp, (a, b) in enumerate(sym_component_pairs(d)[d:], start=d):
        out[a] += np.multiply(data[comp], values[b], out=row)
        out[b] += np.multiply(data[comp], values[a], out=row)
    return out


def apply_A(a: CoefficientField, u: GridField) -> GridField:
    """Pointwise matrix-vector product, the block-diagonal action of A."""
    if a.spec != u.spec:
        raise ValueError("coefficient field and grid field specs do not match")
    return GridField(u.spec, contract(a.data, u.values))


# ---------------------------------------------------------------------------
# Atomic writers of every output file: CSV, text and the voxel pair, a <name>.json
# header + <name>.bin float64-LE payload, row-major FFT-shifted (see fftcell.grid).

# Voxel kind -> payload shape on a grid.
_PAYLOAD_SHAPES = {
    "isotropic": lambda spec: spec.shape,
    "symmetric-tensor": lambda spec: (spec.dim * (spec.dim + 1) // 2,) + spec.shape,
    "vector": lambda spec: (spec.dim,) + spec.shape,
}


def _header_path(path):
    p = Path(path)
    return p if p.suffix == ".json" else p.with_suffix(".json")


def _atomic_write(path, writer):
    """Run ``writer(tmp_path)`` then rename onto ``path``, so an interrupted
    write leaves ``path`` as it was and no temporary file behind.  The
    writer creates the file, so it gets the permissions of a plain write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text):
    """Write ``text`` to ``path`` atomically, its newlines untranslated."""
    _atomic_write(path, lambda tmp: Path(tmp).write_text(text, newline=""))


def write_csv(path, rows):
    """Write ``rows`` to ``path`` as CSV, atomically: floats as ``.17g``,
    which round-trips them, other values as they are."""
    buf = io.StringIO()
    cells = ([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row] for row in rows)
    csv.writer(buf).writerows(cells)
    write_text(path, buf.getvalue())


def save_voxel(path, spec: GridSpec, payload: np.ndarray, kind: str):
    """Write a header/payload pair atomically, payload first; payload shape
    must match ``kind``."""
    if not isinstance(kind, str) or kind not in _PAYLOAD_SHAPES:
        raise MaterialDataError(f"unknown voxel kind {kind!r}")
    payload = np.ascontiguousarray(payload, dtype="<f8")
    expected = _PAYLOAD_SHAPES[kind](spec)
    if payload.shape != expected:
        raise MaterialDataError(f"payload shape {payload.shape} != expected {expected}")
    header = {
        "dim": spec.dim,
        "shape": list(spec.shape),
        "half_periods": list(spec.half_periods),
        "kind": kind,
        "dtype": "f64le",
        "order": "row-major-shifted",
    }
    hpath = _header_path(path)
    _atomic_write(hpath.with_suffix(".bin"), payload.tofile)
    write_text(hpath, json.dumps(header, indent=2) + "\n")


def save_coefficients(path, a: CoefficientField):
    """Write ``a`` as the kind its storage holds: ``isotropic`` scalars or
    ``symmetric-tensor`` packed components."""
    kind = "isotropic" if a.data.shape == a.spec.shape else "symmetric-tensor"
    save_voxel(path, a.spec, a.data, kind)


def save_field(path, u: GridField):
    save_voxel(path, u.spec, u.values, "vector")


def load_header(path):
    hpath = _header_path(path)
    try:
        header = json.loads(hpath.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise VoxelFormatError(f"cannot read voxel header {hpath}: {exc}") from exc
    if not isinstance(header, dict):
        raise VoxelFormatError(f"voxel header {hpath} is not a JSON object")
    for key in ("dim", "shape", "half_periods", "kind", "dtype", "order"):
        if key not in header:
            raise VoxelFormatError(f"voxel header {hpath} missing field {key!r}")
    if header["dtype"] != "f64le" or header["order"] != "row-major-shifted":
        raise VoxelFormatError(
            f"unsupported voxel encoding {header['dtype']}/{header['order']}"
        )
    if not isinstance(header["shape"], list) or len(header["shape"]) != header["dim"]:
        raise VoxelFormatError(
            f"voxel header {hpath}: dim {header['dim']} does not match shape {header['shape']}"
        )
    return header


def _read_voxel(path, kinds, holds):
    """The grid and payload of a voxel pair whose kind is one of ``kinds``;
    any other kind is reported as not holding ``holds`` before the payload
    is read."""
    header = load_header(path)
    try:
        spec = GridSpec(tuple(header["half_periods"]), tuple(header["shape"]))
    except (ValueError, TypeError, OverflowError) as exc:
        raise VoxelFormatError(f"voxel header describes no valid odd grid: {exc}") from exc
    kind = header["kind"]
    if not isinstance(kind, str) or kind not in _PAYLOAD_SHAPES:
        raise VoxelFormatError(f"unknown voxel kind {kind!r}")
    if kind not in kinds:
        raise MaterialDataError(f"voxel kind {kind!r} does not hold {holds}")
    shape = _PAYLOAD_SHAPES[kind](spec)
    bpath = _header_path(path).with_suffix(".bin")
    try:
        data = np.fromfile(bpath, dtype="<f8")
    except OSError as exc:
        raise VoxelFormatError(f"cannot read voxel payload {bpath}: {exc}") from exc
    if data.size != np.prod(shape):
        raise VoxelFormatError(f"payload {bpath} holds {data.size} values, expected {np.prod(shape)}")
    return spec, data.reshape(shape)


def load_voxel(path) -> CoefficientField:
    """Load a coefficient field from a voxel file pair, on the cell
    geometry of its header."""
    spec, payload = _read_voxel(path, ("isotropic", "symmetric-tensor"), "coefficient data")
    return CoefficientField(spec, payload)


def load_field(path) -> GridField:
    return GridField(*_read_voxel(path, ("vector",), "a vector field"))
