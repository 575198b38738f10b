"""tools/code_lines.py counts exactly the lines that hold code."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class Record:
    """Class docstring."""

    __slots__ = ()

    def method(self):
        """Function
        docstring."""
        total = (1 +
                 2 +

                 3)
        text = """a string that is
no docstring"""
        return total, text


async def run():
    "A one-line docstring."
    return [os.sep,
            # a comment inside the brackets
            os.pathsep]
'''

# the code lines of _SOURCE: import; class, __slots__; def, the four lines
# of the sum but for its blank one, the two of the string, return; async
# def, return, and the last line of the list
_CODE_LINES = [4, 8, 11, 13, 16, 17, 19, 20, 21, 22, 25, 27, 29]


def test_the_count_is_exact_on_a_source_with_every_kind_of_line():
    lines = _SOURCE.splitlines()
    assert [lines[i - 1].strip().split()[0] for i in _CODE_LINES] == [
        "import", "class", "__slots__", "def", "total", "2", "3)", "text",
        "no", "return", "async", "return", "os.pathsep]"]
    assert code_lines.code_lines(_SOURCE) == _CODE_LINES


def test_the_command_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"13 {tmp_path / 'pkg' / 'a.py'}", f"1 {tmp_path / 'pkg' / 'b.py'}", "14 total"]
