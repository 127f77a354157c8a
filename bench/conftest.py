import sys
from pathlib import Path

# The benchmark imports the program from src/ of its checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
