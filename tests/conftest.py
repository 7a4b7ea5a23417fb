import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no time limit,
# so a slow or loaded machine cannot fail them on timing.
settings.register_profile("intraport", deadline=None, derandomize=True)
settings.load_profile("intraport")
