import padic_ciphers


def test_every_export_resolves():
    missing = [name for name in padic_ciphers.__all__ if not hasattr(padic_ciphers, name)]
    assert missing == []
    assert len(set(padic_ciphers.__all__)) == len(padic_ciphers.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from padic_ciphers import *", namespace)
    assert set(padic_ciphers.__all__) <= set(namespace)
