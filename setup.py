"""Legacy setup shim: lets ``pip install -e .`` work offline (no wheel
package available for PEP 660 editable builds)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("DMLL: Distributed Multiloop Language — reproduction of "
                 "'Have Abstraction and Eat Performance, Too' (CGO 2016)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=2.0"],
)
