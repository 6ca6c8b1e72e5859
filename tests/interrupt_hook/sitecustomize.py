"""A Ctrl-C that arrives while ``waxsim.cli`` is being imported.

With this directory on ``PYTHONPATH``, the interpreter imports this module
at start-up, and its finder raises ``KeyboardInterrupt`` at the first
``import waxsim.cli``, before ``cli.main`` can run. It raises it inside
``exec`` of a string, as a SIGINT is raised that lands in code a library
builds from a string at import, such as a namedtuple's ``__new__``: CPython
then marks the interrupt as unhandled, and ``python -m`` would end by SIGINT
even after a handler caught it.
"""
import sys


class InterruptCliImport:
    def find_spec(self, name, path=None, target=None):
        if name == "waxsim.cli":
            exec("raise KeyboardInterrupt")
        return None


sys.meta_path.insert(0, InterruptCliImport())
