from count_code_lines import code_lines, main

# Each line that counts ends in "# code" or sits inside a counted statement;
# the docstrings, the bare string statement, the comment-only lines and the
# blank lines do not count.
MODULE = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # code


def f(a,  # code
      b):  # code
    """Function docstring."""
    # another comment-only line

    "a bare string statement"
    os.path.join(  # code
        "a string argument",
        a,  # code
    )
    text = """a string value
over two lines"""
    return text  # code
'''
COUNTED = 10


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path, capsys):
    package = tmp_path / "package"
    package.mkdir()
    (package / "module.py").write_text(MODULE)
    (package / "empty.py").write_text('"""Only a docstring."""\n')
    assert code_lines(package / "module.py") == COUNTED
    assert code_lines(package / "empty.py") == 0
    assert main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    0 package/empty.py",
        f"{COUNTED:5d} package/module.py",
        f"{COUNTED:5d} total",
    ]
