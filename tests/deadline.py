"""A wall-clock deadline for tests of work that used to hang."""

import contextlib
import signal


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body after `seconds` s (SIGALRM, main
    thread only), so a regression fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
