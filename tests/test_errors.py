"""One exception hierarchy: every package error derives from LabelTransferError."""

import numpy as np
import pytest

from labeltransfer import autodiff, data, fusion, labelgraph
from labeltransfer.errors import LabelTransferError
from labeltransfer.fusion import ModelParams, gcn_propagate
from labeltransfer.labelgraph import build_graph


def test_input_error_is_one_class():
    assert fusion.InputError is data.InputError


@pytest.mark.parametrize("module", [autodiff, data, fusion, labelgraph])
def test_module_errors_share_the_base(module):
    classes = [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Exception)
    ]
    assert classes
    for cls in classes:
        assert issubclass(cls, LabelTransferError), cls
        assert issubclass(cls, ValueError), cls


def test_data_input_error_catches_gcn_misalignment():
    graph = build_graph(np.eye(3), ["A", "B", "C"], 1.5)
    params = ModelParams(d_h=2, d_p=2, n_types=2, n_tags=5, encoder_mode="toy")
    with pytest.raises(data.InputError, match="do not align"):
        gcn_propagate(autodiff.Tensor(np.zeros((2, 2))), graph, params)
