"""``python -m hyperharm``: the same command line as the ``hyperharm`` script."""

from .cli import main

if __name__ == "__main__":
    main()
