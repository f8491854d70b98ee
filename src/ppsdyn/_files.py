"""The package's one way to write a file, and to take an artifact away."""

import contextlib
import os
import stat


def rewrite(path):
    """A UTF-8 text handle that writes `path` from its first byte, as the
    builtin open in mode "w" does, but over an existing file's bytes rather
    than after truncating them: on leaving, a regular file longer than what
    was written is cut where the writing stopped, exception or not, so it
    holds exactly what was written.  The bytes, the permissions under the
    umask, the effect on hard links and the OSError types are those of mode
    "w".  A non-regular target, such as a symlink to /dev/null, is written
    but not cut: ftruncate there raises EINVAL.

    Why not truncate first: on ext4 (auto_da_alloc, on by default), a file
    that is truncated and rewritten is flushed when it is closed.  Rewriting
    a 6 KB file 300 times on a 2-core VM's ext4 root took 82-95 µs a write
    in mode "w" and 11-15 µs in place; 118-139 -> 15-23 µs at 60 KB and
    1.41-1.49 -> 0.32-0.34 ms at 1.7 MB.  Writing a temporary file and
    os.replace-ing it took 90-103 µs at 6 KB, since a rename over a file
    flushes too; unlinking and then creating took 18-27 µs, and breaks
    hard links.  A new file gets mode "w"'s plain handle, and an existing
    one no longer than what was written is not cut: a stat and a cut of
    every file made a sweep that writes each report into a new --out
    2.6-4.8% slower, and that sweep gains nothing from writing in place.

    The limit: the cut runs only when Python unwinds.  A run killed while
    it writes (SIGKILL, or SIGTERM under its default handler) leaves the
    new bytes followed by the old file's tail, where mode "w" leaves a
    prefix of the new bytes only.  After a crash or power loss, ext4 may
    likewise keep old and new blocks of a rewritten file side by side:
    the flush on close that mode "w" triggers narrows that window.
    Neither mode syncs the file."""
    try:
        fd, new = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, new = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False
    fh = open(fd, "w", encoding="utf-8")
    return fh if new else _cut_on_leaving(fh)


@contextlib.contextmanager
def _cut_on_leaving(fh):
    with fh:
        try:
            yield fh
        finally:
            fh.flush()
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
                fh.truncate()


def discard(paths) -> None:
    """Remove each of paths that is there, so no earlier run's file stays
    beside a run that wrote none; an absent path, or one under a parent that
    is not a directory, has nothing to remove."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            os.remove(path)
