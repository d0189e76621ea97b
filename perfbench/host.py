"""Facts about the host and software stack, recorded with every result."""
import os
import platform
import re
from importlib import metadata

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _mem_gb() -> float:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 2**20, 1)
    except OSError:
        pass
    return float("nan")


def _blas() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = blas.get("openblas configuration", "")
    m = re.search(r"MAX_THREADS=(\d+)", cfg)
    return {"name": blas.get("name"), "version": blas.get("version"),
            "max_threads": int(m.group(1)) if m else None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def _version(pkg: str) -> str | None:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def host_facts(seed: int, spark: dict | None = None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gb": _mem_gb(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": _version("pyspark"),
        "pyarrow": _version("pyarrow"),
        "blas": _blas(),
        "spark": spark,
        "seed": seed,
    }
