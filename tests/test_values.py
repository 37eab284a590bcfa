import pytest

from tdbnet.values import BOOL, INT, TEXT, TS, ColorType, product


def test_scalar_conformance():
    assert INT.fits(5)
    assert INT.fits(-3)
    assert not INT.fits("5")
    assert TEXT.fits("hi")
    assert not TEXT.fits(5)
    assert BOOL.fits(True)
    assert TS.fits(1250)


def test_bool_is_not_an_int_value():
    # bool is an int subclass in Python; the type system keeps them apart
    assert not INT.fits(True)
    assert not TS.fits(False)
    assert not BOOL.fits(1)


def test_product_conformance():
    msg = product(INT, TEXT)
    assert msg.fits((1, "a"))
    assert not msg.fits((1,))
    assert not msg.fits(("a", 1))
    assert not msg.fits([1, "a"])


def test_product_labels():
    msg = product(INT, TEXT, labels=("mid", "body"))
    assert msg.labels == ("mid", "body")
    with pytest.raises(ValueError):
        product(INT, TEXT, labels=("only_one",))


def test_no_nested_products():
    inner = product(INT, INT)
    with pytest.raises(ValueError):
        product(inner, TEXT)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        ColorType("float")
    with pytest.raises(ValueError):
        ColorType("product")  # products need components

