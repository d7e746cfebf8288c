"""Entry point: python -m alskit <command>."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at
        # exit cannot raise again, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
