"""``python -m fanfree``: the command line of ``fanfree.cli``."""

from .cli import run

if __name__ == "__main__":
    run()
