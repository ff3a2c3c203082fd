import gc
import sys

from .cli import entry, stdout_gone


def main() -> int:
    """The one way in: ``python -m seqtext`` and the ``seqtext`` console
    script both run this."""
    rc = entry()
    try:
        sys.stdout.flush()  # a reader that is gone fails here, not at exit
    except BrokenPipeError as e:
        rc = stdout_gone(e)
    # The command is done: frozen objects are left out of the collector's
    # passes, so tearing the interpreter down does not walk every one.
    gc.freeze()
    return rc


if __name__ == "__main__":
    sys.exit(main())
