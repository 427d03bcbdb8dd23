"""Record which functions a Python process calls (loaded by ``tests/tools/census.py``).

Put this directory on ``PYTHONPATH`` and set ``REPRO_CENSUS_OUT`` to a
directory: every interpreter started with that environment (subprocesses
included) installs a ``sys.setprofile`` hook and, at exit, writes the
``(co_filename, co_firstlineno, co_name)`` of every code object it entered to
``REPRO_CENSUS_OUT/<pid>-<n>.json``.  Without ``REPRO_CENSUS_OUT`` the module
does nothing.

The hook *chains*: ``sys.setprofile`` / ``sys.getprofile`` are replaced so a
profiler installed by the code under observation (a test counting calls, say)
receives every event it would have seen alone, and ``sys.setprofile(None)``
uninstalls only that profiler, never the census.
"""

import os
import sys


def _install(out_dir):
    import atexit
    import itertools
    import json
    import threading

    seen = {}  # id(code) -> code; holding the code keeps its id from being reused
    chained = [None]

    def profile(frame, event, arg):
        code = frame.f_code
        if code is own_set or code is own_get:
            return  # the chained profiler must not see the census's own wrappers
        if event == "call" and id(code) not in seen:
            seen[id(code)] = code
        user = chained[0]
        if user is not None:
            user(frame, event, arg)

    def setprofile(function):
        chained[0] = function

    def getprofile():
        return chained[0]

    own_set, own_get = setprofile.__code__, getprofile.__code__

    dumps = itertools.count()

    def dump():
        codes = list(seen.values())  # one C call: the comprehension below is profiled too
        records = sorted({(code.co_filename, code.co_firstlineno, code.co_name)
                          for code in codes})
        path = os.path.join(out_dir, f"{os.getpid()}-{next(dumps)}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle)

    real_execv = os.execv

    def execv(path, args):
        dump()  # exec replaces the process image: atexit would never run
        real_execv(path, args)

    real_setprofile = sys.setprofile
    os.execv = execv
    atexit.register(dump)
    sys.setprofile = setprofile
    sys.getprofile = getprofile
    threading.setprofile(profile)
    real_setprofile(profile)


if os.environ.get("REPRO_CENSUS_OUT"):
    os.makedirs(os.environ["REPRO_CENSUS_OUT"], exist_ok=True)
    _install(os.environ["REPRO_CENSUS_OUT"])
