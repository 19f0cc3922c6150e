"""Storage layer: Lance-preferred, parquet-fallback table persistence.

The graft targets Lance tables (BASELINE.json:input_hint).  The ``lance``
package is not available in this environment, so every writer/reader goes
through this module: when ``lance`` is importable it is used, otherwise the
same logical table lands as parquet with identical schema/partition layout
(one directory per wave/shard — resumable, never one giant file).
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

try:  # pragma: no cover - lance absent in this environment
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def table_uri(path: str) -> str:
    return path + (".lance" if HAVE_LANCE else ".parquet")


def replace_dir(dest: str, write):
    """Build directory ``dest`` atomically: any stale ``dest + ".tmp"`` is
    cleared, ``write(tmp)`` fills it (a write that produced nothing leaves
    an empty directory), then it replaces ``dest``.  Returns what ``write``
    returned."""
    tmp = dest + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    out = write(tmp)
    os.makedirs(tmp, exist_ok=True)
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.replace(tmp, dest)
    return out


def write_table_atomic(table: pa.Table, path: str) -> str:
    """Write a small/medium Arrow table atomically (tmp + rename)."""
    uri = table_uri(path)
    os.makedirs(os.path.dirname(uri), exist_ok=True)
    if HAVE_LANCE:  # pragma: no cover
        replace_dir(uri, lambda tmp: lance.write_dataset(table, tmp))
    else:
        tmp = uri + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, uri)
    return uri


def read_table(path: str) -> pa.Table:
    uri = table_uri(path)
    if HAVE_LANCE:  # pragma: no cover
        return lance.dataset(uri).to_table()
    return pq.read_table(uri)


def exists(path: str) -> bool:
    return os.path.exists(table_uri(path))


def write_json_atomic(obj: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)
