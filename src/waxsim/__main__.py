"""``python -m waxsim`` and the ``waxsim`` console script: a Ctrl-C (SIGINT)
from the first import of :mod:`waxsim.cli` on prints one line and exits 130.
Once the command has returned, its output is complete and SIGINT is
ignored, so the process exits with the command's own code."""
import sys


def main() -> int:
    try:
        import signal

        from .cli import main as cli_main

        code = cli_main()
        # a SIGINT during interpreter shutdown would otherwise end the
        # process by SIGINT, or print an ignored KeyboardInterrupt
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        return code
    except KeyboardInterrupt:
        # raised in exec() or eval() of a string (code a library builds at
        # import, such as a namedtuple's __new__), the interrupt sets CPython's
        # unhandled-interrupt flag, which would turn exit 130 of ``python -m``
        # into death by SIGINT; exec("") clears it
        exec("")
        print("waxsim: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
