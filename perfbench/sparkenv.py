"""Local Spark session for the benchmark, and its orderly shutdown.

The session mirrors ``jobs/_common.get_spark`` (64 shuffle partitions,
Arrow on, broadcast joins off) on ``local[P]`` with P = the usable cores.
Spark's scratch files, the JVM's temp dir and Python's temp files all
go under the work directory, so a run writes nothing outside it.
"""
import os
import signal
import subprocess
import time

SHUFFLE_PARTITIONS = 64
DRIVER_MEM = "2g"


def configure(work: str, src: str, cores: int) -> None:
    """Environment for the JVM and the Python workers; call before
    pyspark is imported."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"]
                                      if os.environ.get("PYTHONPATH") else "")
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["TMPDIR"] = tmp
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.sql.warehouse.dir={os.path.join(work, 'warehouse')} "
        f"--conf spark.driver.extraJavaOptions=\"{java_opts}\" pyspark-shell")


def start():
    from pyspark.sql import SparkSession

    s = (SparkSession.builder.appName("perfbench")
         .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
         .config("spark.sql.execution.arrow.pyspark.enabled", "true")
         .config("spark.sql.autoBroadcastJoinThreshold", -1)
         .getOrCreate())
    s.sparkContext.setLogLevel("ERROR")
    return s


def facts(spark, partitions: int) -> dict:
    conf = spark.conf
    return {"master": spark.sparkContext.master, "partitions": partitions,
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
            "auto_broadcast_threshold":
                conf.get("spark.sql.autoBroadcastJoinThreshold")}


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def _descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop(spark, timeout: float = 60.0) -> None:
    """Stop the session, end the JVM and every process under it, and wait
    until all of them have exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    procs = _descendants(os.getpid())
    spark.stop()
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway server exits on EOF
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    for pid in procs:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
