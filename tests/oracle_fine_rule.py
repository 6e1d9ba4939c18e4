"""Frozen values of a fine quadrature rule for the error-estimate samples.

These are the values `QuadratureConfig(waves_per_panel=0.5)` gave for the
15 samples of `test_oscint.TestErrorEstimate` under the 16-point panel rule:
every oscillating axis on 16-point Gauss panels of at most half a turn, 8x
the panels of the default 4 turns, and plateau axes at order 4, 8 or 12 on
the same panels.  The per-axis rule now also takes orders 24 and 32 on wider
panels, in that configuration as in the default, so the two are no longer
independent; these frozen values are.

Each entry maps (phase, dimension, positive orthant, lam) to the value; its
comment gives that rule's own error estimate and node count.  Pure test
data: nothing here is computed.
"""

VALUES = {
    ('x1*x2', 2, True, 64.0):
        complex(0.024543602332113293, 0.06473213435051747),  # err 3.7e-08, 74112 nodes
    ('x1*x2', 2, True, 1024.0):
        complex(0.00153398098179312, 0.006753337084944721),  # err 2.3e-09, 12236576 nodes
    ('x1*x2', 2, False, 64.0):
        complex(0.0981744093284529, 3.0357660829594124e-18),  # err 1.4e-07, 296448 nodes
    ('x1*x2', 2, False, 256.0):
        complex(0.024543695751865942, 1.734723475976807e-18),  # err 3.4e-08, 3272768 nodes
    ('x1^3*x2^3', 2, True, 64.0):
        complex(0.41368022536039223, 0.1038599498384045),  # err 4.2e-08, 260016 nodes
    ('x1^3*x2^3', 2, True, 256.0):
        complex(0.31683890983421337, 0.0978988026937544),  # err 9.9e-09, 4012208 nodes
    ('x1^3*x2^3', 2, True, 512.0):
        complex(0.27381003119003144, 0.09059738939712665),  # err 2.1e-08, 15876896 nodes
    ('x1^3*x2^3', 2, False, 64.0):
        complex(1.6547209014415685, 2.1827509655151286e-18),  # err 5.3e-08, 1040064 nodes
    ('x1^2*x2^2 + x1^5*x2', 2, True, 64.0):
        complex(0.22786104822817368, 0.12425367847086861),  # err 1.4e-08, 699776 nodes
    ('x1^2*x2^2 + x1^5*x2', 2, True, 256.0):
        complex(0.1350799090654289, 0.0855513077046285),  # err 6.5e-09, 10780880 nodes
    ('x1*x2*x3', 3, True, 16.0):
        complex(0.24188642813936603, 0.1653666286526564),  # err 1.9e-07, 1052288 nodes
    ('x1*x2*x3', 3, True, 32.0):
        complex(0.15477879225983265, 0.14332830090654725),  # err 1.4e-07, 2366528 nodes
    ('x1*x2*x3', 3, True, 64.0):
        complex(0.09439980938323382, 0.10957084053046234),  # err 9.2e-08, 10168256 nodes
    ('x1*x2*x3', 3, False, 16.0):
        complex(1.9350914251149283, -4.0660063010044075e-20),  # err 1.5e-06, 8418304 nodes
    ('x1^2*x2^2*x3^2 + x1^3*x2*x3', 3, True, 16.0):
        complex(0.35221717100669886, 0.0886162880241929),  # err 6.4e-08, 4483712 nodes
}
