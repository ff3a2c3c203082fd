import gc
import sys

from .cli import entry

if __name__ == "__main__":
    rc = entry()
    # The command is done: frozen objects are left out of the collector's
    # passes, so tearing the interpreter down does not walk every one.
    gc.freeze()
    sys.exit(rc)
