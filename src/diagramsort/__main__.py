"""``python -m diagramsort``: the command-line tool of :mod:`diagramsort.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
