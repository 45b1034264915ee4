"""``python -m lieconformal`` runs the ``lcv`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
