"""The code-line counter, scripts/code_lines.py, called in this process."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line that counts is marked "code"; nothing else counts.
FIXTURE = '''"""A module docstring
over two lines."""

import os  # code


# a comment line
class A:  # code
    """A class docstring."""

    x = 1  # code

    def f(self):  # code
        """A function docstring
        over three
        lines."""
        text = """a string         (code)
        that is not a docstring"""  # code
        "a later string statement"  # code
        return (text +  # code
                os.sep)  # code


async def g():  # code
    pass  # code
'''


def test_fixture_count_is_pinned():
    assert code_lines.code_lines(FIXTURE) == 11


def test_empty_and_docstring_only_modules_have_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_totals_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "12\n"
    assert code_lines.main([str(tmp_path / "sub" / "b.py"), str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out == "12\n"
