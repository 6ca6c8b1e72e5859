"""A Ctrl-C that arrives during interpreter shutdown, after the command.

With this directory on ``PYTHONPATH``, the interpreter imports this module
at start-up, and the ``atexit`` handler it registers sends SIGINT to the
process once the command has returned and its output is written.
"""
import atexit
import os
import signal

atexit.register(os.kill, os.getpid(), signal.SIGINT)
