"""RPR003 — no blocking calls on the service event loop."""

from __future__ import annotations

from repro.analysis import rpr003_async_blocking

PATH = "src/repro/service/server.py"


SLEEPER = """
    import time

    async def handler():
        time.sleep(1)
    """


def test_applies_only_under_service(run_rule):
    assert len(run_rule(rpr003_async_blocking, PATH, SLEEPER)) == 1
    assert run_rule(rpr003_async_blocking, "src/repro/engine.py", SLEEPER) == []
    assert run_rule(rpr003_async_blocking, "src/repro/joins/yannakakis.py", SLEEPER) == []


def test_time_sleep_in_async_def_flagged(run_rule):
    findings = run_rule(
        rpr003_async_blocking,
        PATH,
        """
        import time

        async def handler():
            time.sleep(1)
        """,
    )
    assert [(f.rule_id, f.line) for f in findings] == [("RPR003", 5)]
    assert "blocking call time.sleep() inside async def 'handler'" in findings[0].message


def test_asyncio_sleep_passes(run_rule):
    findings = run_rule(
        rpr003_async_blocking,
        PATH,
        """
        import asyncio

        async def handler():
            await asyncio.sleep(1)
        """,
    )
    assert findings == []


def test_sync_helper_inside_coroutine_not_flagged(run_rule):
    # The helper is assumed executor-bound: flagging it would punish the fix.
    findings = run_rule(
        rpr003_async_blocking,
        PATH,
        """
        import time

        async def handler(loop):
            def work():
                time.sleep(1)
            await loop.run_in_executor(None, work)
        """,
    )
    assert findings == []


def test_sleep_in_plain_def_not_flagged(run_rule):
    findings = run_rule(
        rpr003_async_blocking,
        PATH,
        """
        import time

        def worker():
            time.sleep(1)
        """,
    )
    assert findings == []


def test_open_and_subprocess_and_pathlib_io_flagged(run_rule):
    findings = run_rule(
        rpr003_async_blocking,
        PATH,
        """
        import subprocess

        async def handler(path):
            subprocess.run(["ls"])
            data = open("f").read()
            text = path.read_text()
        """,
    )
    assert [f.message.split(" inside")[0] for f in findings] == [
        "blocking call subprocess.run()",
        "blocking call open()",
        "blocking call read_text()",
    ]
