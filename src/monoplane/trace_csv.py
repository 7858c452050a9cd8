"""The text of trace.csv, and a helper process that formats it.

``csv_lines`` is the one writer of the file's header and rows: each float
is written as its ``repr``, each count as an int. ``TrainingTrace.to_csv``
uses it in-process, and so does this module run as a script, which
``monoplane train`` starts as a helper process on a host with more than
one usable CPU:

    python -I -S trace_csv.py < blocks > row count + text

The anneal sends each closed block of epochs as it ends (``pack_block``):
its row count as 8 bytes, then its temperature, cost, errors and minimal
stability columns as native float64, float64, int64 and float64 bytes. The
helper reads them with ``memoryview.cast``, which gives the same Python
floats and ints as numpy's ``tolist``, and formats each block while the
anneal runs the next one. It keeps only the encoded text. At the end of
its input it writes the number of rows it formatted as 8 bytes, then the
text. Nothing is written before every block is formatted, so a helper that
fails writes nothing. The module imports only ``sys``, so that it starts
fast with ``-I -S`` and runs without numpy.
"""

import sys

_COLUMN_FORMATS = "ddqd"


def csv_lines(start, temperature, cost, errors, min_stability):
    """The lines of trace.csv for rows numbered from ``start``, from the
    columns as lists of Python floats and ints: the header first when
    ``start`` is 0, then one line per row."""
    if start == 0:
        yield "epoch,temperature,cost,errors,min_stability\n"
    for i, (T, E, e, s) in enumerate(zip(temperature, cost, errors,
                                         min_stability), start):
        yield f"{i},{T!r},{E!r},{e},{s!r}\n"


def pack_block(temperature, cost, errors, min_stability):
    """One block as the helper reads it: the row count, then the four
    C-contiguous columns' native bytes (float64, float64, int64, float64)."""
    return b"".join((len(errors).to_bytes(8, sys.byteorder),
                     temperature, cost, errors, min_stability))


def format_blocks(read):
    """(rows, encoded text) of the blocks that ``read(n)`` gives until the
    end of its input. The first block carries the header, even when it has
    no rows; the anneal sends an empty block only as its last."""
    rows, text = 0, []
    while head := read(8):
        n = int.from_bytes(head, sys.byteorder)
        body = memoryview(read(32 * n))
        if len(head) != 8 or len(body) != 32 * n:
            raise EOFError(f"block {len(text)} is cut short")
        columns = [body[8 * n * k:8 * n * (k + 1)].cast(fmt).tolist()
                   for k, fmt in enumerate(_COLUMN_FORMATS)]
        text.append("".join(csv_lines(rows, *columns)).encode("ascii"))
        rows += n
    return rows, text


def read_count(stream):
    """The row count that heads the helper's output, or None when the
    output ends before it: the helper failed."""
    head = stream.read(8)
    return int.from_bytes(head, sys.byteorder) if len(head) == 8 else None


def main():
    rows, text = format_blocks(sys.stdin.buffer.read)
    out = sys.stdout.buffer
    out.write(rows.to_bytes(8, sys.byteorder))
    out.writelines(text)
    out.flush()


if __name__ == "__main__":
    main()
